"""Run one `histkit` command in this process with layer tracing on.

    python bench/traced_cli.py SPANS.json -- run specs/epr.spec --format json

The command's own output goes to stdout as usual; the spans and computed
counts of the call go to SPANS.json. The exit code is the command's.
Expects `histories_kit` importable (PYTHONPATH=src).
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write(__doc__)
        return 64
    spans_path, argv = sys.argv[1], sys.argv[3:]
    from histories_kit import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.execute(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
