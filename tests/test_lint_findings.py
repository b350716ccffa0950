"""Golden record of which rules fire where, and with which message.

``tests/data/lint_findings.txt`` runs every rule-coverage fixture tree
(:data:`tests.test_rule_coverage.FIXTURES`), firing and clean, through
the full engine (:func:`repro.analysis.lint.lint_paths`) with its files
laid out as written and then placed under each scope directory --
``core/``, ``cluster/``, ``simulation/``, ``serving/``, ``experiments/``
-- and, for one-file fixtures, also renamed to ``epoch.py`` and
``squishy.py`` (the planner inner-loop files).  Each case prints its
findings as path, line, column, rule and message, or ``clean``.  A
refactor of the engine must leave it byte-identical; regenerate it only
for a change that means to move findings, and say so:

    PYTHONPATH=src python -m tests.test_lint_findings > tests/data/lint_findings.txt
"""

import difflib
import sys
import tempfile
import textwrap
from pathlib import Path

from repro.analysis.lint import lint_paths
from tests.test_rule_coverage import FIXTURES

SNAPSHOT = Path(__file__).parent / "data" / "lint_findings.txt"
SCOPE_DIRS = ("core", "cluster", "simulation", "serving", "experiments")
RENAMES = (None, "epoch.py", "squishy.py")


def _cases():
    for rule in sorted(FIXTURES):
        for variant, tree in zip(("firing", "clean"), FIXTURES[rule]):
            yield f"{rule} {variant} as-written", tree
            for scope in SCOPE_DIRS:
                for rename in RENAMES:
                    if rename is not None and len(tree) > 1:
                        continue
                    files = {
                        f"{scope}/{rename or Path(rel).name}": source
                        for rel, source in tree.items()
                    }
                    yield f"{rule} {variant} {scope}/{rename or '*'}", files


def render() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, (label, files) in enumerate(_cases()):
            root = Path(tmp) / f"case{n}"
            for rel, source in files.items():
                file = root / rel
                file.parent.mkdir(parents=True, exist_ok=True)
                file.write_text(textwrap.dedent(source), encoding="utf-8")
            findings, errors = lint_paths([root])
            assert errors == [], errors
            out.append(f"# {label}")
            for f in findings:
                rel = Path(f.path).relative_to(root).as_posix()
                out.append(f"{rel}:{f.line}:{f.col}: [{f.rule}] {f.message}")
            if not findings:
                out.append("clean")
    return "\n".join(out) + "\n"


def test_findings_match_the_snapshot():
    got = render()
    want = SNAPSHOT.read_text()
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True),
            "lint_findings.txt", "this tree", n=1,
        ))
        raise AssertionError("lint findings moved:\n" + diff[:4000])


if __name__ == "__main__":
    sys.stdout.write(render())
