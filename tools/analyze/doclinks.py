"""Documentation link integrity (DL5xx).

* **DL501** -- a relative link target in a top-level markdown file does
  not exist on disk.
* **DL502** -- a link target resolves outside the repository root.

External links (http/https/mailto) and pure in-page anchors are not
checked; this is a docs-integrity gate, not a crawler.
"""

from __future__ import annotations

import re
import urllib.parse
from pathlib import Path
from typing import List

from tools.analyze.core import Finding, Project

__all__ = ["check_text", "run"]

#: Inline markdown links; deliberately simple (no nested parens in our docs).
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")


def check_text(rel_path: str, text: str, root: Path) -> List[Finding]:
    """DL501/DL502 over one markdown file's text."""
    findings: List[Finding] = []
    base = (root / rel_path).parent
    for number, line in enumerate(text.splitlines(), 1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_SCHEMES):
                continue
            path_part, _, _anchor = target.partition("#")
            if not path_part:
                continue  # pure in-page anchor
            resolved = (base / urllib.parse.unquote(path_part)).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                findings.append(
                    Finding(
                        "DL502", rel_path, number,
                        f"link ({target}) escapes the repository root",
                        key=f"escape:{target}",
                    )
                )
                continue
            if not resolved.exists():
                findings.append(
                    Finding(
                        "DL501", rel_path, number,
                        f"link ({target}) -> missing {resolved}",
                        key=f"broken:{target}",
                    )
                )
    return findings


def run(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(project.root.glob("*.md")):
        rel_path = project.rel(path)
        findings.extend(
            check_text(rel_path, project.source(rel_path), project.root)
        )
    return findings
