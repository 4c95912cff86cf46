"""``python -m repro`` with span recording installed first.

Traced service runs start the server as ``python3 bench/traced_main.py serve
...`` instead of ``python3 -m repro serve ...``.  The recorders go in before
the CLI runs (``BENCH_TRACE_DIR`` / ``BENCH_TRACE_ID`` name the trace), and
the spans are written when the CLI returns -- for ``serve``, after SIGINT.
"""

import sys

import spans

if __name__ == "__main__":
    tracer = spans.install_from_env()
    from repro.cli import main

    try:
        code = main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.flush()
    sys.exit(code)
