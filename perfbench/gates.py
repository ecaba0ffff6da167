"""Correctness gates: every answer the benchmark times is also checked.

- :func:`reference_answers` solves each problem in-process on a cold
  session over the same corpus; ``solve-warm`` compares every response
  with it.
- :func:`replay_mismatches` replays the committed insert order
  single-threaded on a cold session and compares each problem's final
  answer with the server's.
- :func:`ledger_errors` audits a subscription's diff ledger: dense seqs,
  rising watermarks, and the composed diff chain equal to the final
  answer.

Answers are compared as canonical JSON of
:func:`repro.api.diff.comparable_payload` (timing and counters removed).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.api.diff import ResultDiff, apply_diff, comparable_payload
from repro.core.enumeration import GroupEnumerationConfig
from repro.core.incremental import IncrementalTagDM

from common import ENUMERATION, SERVER_SEED, canonical


def answer_key(result) -> str:
    """A solve's answer as compared by every gate."""
    return canonical(comparable_payload(result.to_dict()))


def _answers(session, specs: Mapping[int, object]) -> Dict[int, str]:
    answers = {}
    for pid, spec in specs.items():
        problem, algorithm = spec.validate()
        answers[pid] = answer_key(session.solve(problem, algorithm=algorithm))
    return answers


def _cold_session(dataset) -> IncrementalTagDM:
    return IncrementalTagDM(
        dataset, enumeration=GroupEnumerationConfig(**ENUMERATION), seed=SERVER_SEED
    ).prepare()


def reference_answers(dataset, specs: Mapping[int, object]) -> Dict[int, str]:
    """Each problem's answer from a cold in-process session."""
    return _answers(_cold_session(dataset), specs)


def served_answers(client, corpus: str, specs: Mapping[int, object]) -> Dict[int, str]:
    return {pid: answer_key(client.solve(corpus, spec)) for pid, spec in specs.items()}


def replay_mismatches(
    base_dataset,
    committed: Sequence[Mapping[str, object]],
    served: Mapping[int, str],
    specs: Mapping[int, object],
) -> List[int]:
    """Problems whose served answer differs from a cold serial replay.

    ``base_dataset`` is a private copy of the corpus as first opened; the
    replay appends to it.
    """
    session = _cold_session(base_dataset)
    for action in committed:
        session.add_actions([action])
    replayed = _answers(session, specs)
    return [pid for pid in specs if replayed[pid] != served[pid]]


def ledger_errors(poll: Mapping[str, object], final_answer: str) -> List[str]:
    """What is wrong with one subscription's full diff ledger, if anything."""
    errors = []
    diffs = poll["diffs"]
    seqs = [entry["seq"] for entry in diffs]
    if seqs != list(range(1, len(seqs) + 1)):
        errors.append(f"ledger seqs are not dense from 1: {seqs[:10]}...")
    if poll["last_seq"] != len(seqs):
        errors.append(f"last_seq {poll['last_seq']} != {len(seqs)} diffs delivered")
    watermarks = [entry["watermark"] for entry in diffs]
    if any(later <= earlier for earlier, later in zip(watermarks, watermarks[1:])):
        errors.append("ledger watermarks do not strictly rise")
    state = None
    for entry in diffs:
        state = apply_diff(ResultDiff.from_dict(entry["diff"]), state)
    if canonical(comparable_payload(state)) != final_answer:
        errors.append("composed diff chain differs from the final answer")
    return errors
