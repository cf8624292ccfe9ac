"""Run the ``repro`` CLI with layer spans recorded.

    python perfbench/launch.py SPAN_DIR <repro CLI arguments...>

Installs the span wrappers of ``spans.py``, then calls
``repro.cli.main`` with the remaining arguments, so forked fleet
workers inherit the wrappers.  Spans are written to
``SPAN_DIR/spans-<pid>.jsonl`` when each process ends.
"""

import os
import sys

from spans import Recorder, install


def main() -> int:
    span_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder, span_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))


if __name__ == "__main__":
    sys.exit(main())
