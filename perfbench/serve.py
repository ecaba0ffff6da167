"""Server child of the benchmark: one TagDMServer behind a TagDMHttpServer.

The benchmark process (``run.py``) starts this one, reads ``READY <url>`` from
its stdout once the corpus is open and the HTTP front-end listens, and
then steers it over stdin, one command per line, each answered by one
JSON line:

``side <corpus-file>``  open a second corpus named ``side``
``trace on|off``        start/stop span recording (with ``--spans``)
``stats``               peak RSS and the per-shard serving counters
``quit``                stop serving, write the spans, exit (EOF does too)

Usage: ``python3 perfbench/serve.py --corpus-file F --root DIR
[--spans FILE]``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CORPUS, ENUMERATION, ROTATE_EVERY_INSERTS, ROTATE_KEEP_LAST, SERVER_SEED,
    SIDE_CORPUS, pin_to_cpu, read_corpus, require_source,
)


def reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-file", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", help="write recorded spans here (enables tracing)")
    args = parser.parse_args(argv)
    pin_to_cpu(-1)
    if not require_source():
        print("serve.py: no src/repro next to the benchmark", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.core.enumeration import GroupEnumerationConfig
    from repro.serving import SnapshotRotationPolicy, TagDMHttpServer, TagDMServer

    server = TagDMServer(
        args.root,
        policy=SnapshotRotationPolicy(
            every_inserts=ROTATE_EVERY_INSERTS, keep_last=ROTATE_KEEP_LAST
        ),
        enumeration=GroupEnumerationConfig(**ENUMERATION),
        seed=SERVER_SEED,
    )
    front = None
    try:
        server.add_corpus(CORPUS, read_corpus(Path(args.corpus_file)))
        front = TagDMHttpServer(server).start()
        sys.stdout.write(f"READY {front.url}\n")
        sys.stdout.flush()
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "quit":
                break
            if command[0] == "side":
                server.add_corpus(SIDE_CORPUS, read_corpus(Path(command[1])))
                reply({"ok": True})
            elif command[0] == "trace" and tracer is not None:
                tracer.enable(command[1] == "on")
                reply({"ok": True})
            elif command[0] == "stats":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                reply({"rss_peak_mb": peak_kb / 1024.0, "shards": server.stats()})
            else:
                reply({"ok": False, "error": f"unknown command {line.strip()!r}"})
    finally:
        if front is not None:
            front.stop()
        server.close()
    written = tracer.dump(Path(args.spans)) if tracer is not None else 0
    reply({"ok": True, "spans": written})
    return 0


if __name__ == "__main__":
    sys.exit(main())
