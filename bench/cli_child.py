"""Run one molphase CLI command with its public functions traced.

    python3 bench/cli_child.py SPANS_JSON SOLVE_ID <molphase arguments...>

Used for the traced cli_cold solves. Every top-level span nests under the
solve span the parent process holds open; the spans go to SPANS_JSON and
the exit code is the CLI's own.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import molphase  # noqa: E402
import molphase.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, solve_id, *args = sys.argv[1:]
    tracer = Tracer()
    tracer.install(molphase)
    tracer.open_remote_root(int(solve_id))
    code = molphase.cli.main(args)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
