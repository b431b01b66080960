"""One traced cli_cold op: a fresh process that runs `qcontext.cli.main(argv)`.

    python perfbench/cli_child.py [CLI ARGUMENTS...]

With no arguments it only imports qcontext, the traced form of the
`import qcontext` op.  The span wrappers are installed after the import and
before `main`; the CLI's own output is captured and returned with the spans
as one JSON document on stdout.  Needs `src` on PYTHONPATH; run.py sets it.
"""
import contextlib
import io
import json
import sys

import tracing


def main() -> None:
    argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    returncode, out, err = 0, io.StringIO(), io.StringIO()
    if argv:
        from qcontext import cli

        tracer.recording = True
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            returncode = cli.main(argv)
        tracer.recording = False
    json.dump(
        {
            "returncode": returncode,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "names": tracer.names,
            "spans": tracer.spans,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
