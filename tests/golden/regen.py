"""Regenerate the golden CLI outputs.

Run from the repository root:

    python3 tests/golden/regen.py

Pins TOOL_VERSION to "TEST" so golden bytes do not churn on version bumps.
"""

import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN = Path(__file__).resolve().parent

sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not
from histories_kit import cli  # noqa: E402


def capture(argv):
    buf = io.StringIO()
    code = cli.execute(argv, out=buf)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue()


def main():
    cli.TOOL_VERSION = "TEST"
    (GOLDEN / "neon.json").write_text(capture(["neon", "--format", "json"]))
    (GOLDEN / "epr.json").write_text(capture(["epr", "--format", "json"]))
    (GOLDEN / "lhv-bound.json").write_text(capture(["lhv-bound", "--format", "json"]))
    checks = {"feasible": ["0.5", "0.3", "0.2", "-0.1"], "infeasible": ["1", "1", "1", "-1"]}
    for name, table in checks.items():
        out = capture(["lhv-check", *table, "--format", "json"])
        (GOLDEN / f"lhv-check-{name}.json").write_text(out)
    for spec in sorted((ROOT / "specs").glob("*.spec")):
        out = capture(["run", str(spec), "--format", "json"])
        (GOLDEN / f"run-{spec.stem}.json").write_text(out)
    print("golden files written to", GOLDEN)


if __name__ == "__main__":
    main()
