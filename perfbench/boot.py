"""Traced twin of ``python -m repro``: ``python boot.py <repro args>``.

Installs the layer timing of ``layers.py`` (an import hook only; no
``repro`` module is imported here) and then runs the ``repro``
package as ``__main__`` exactly as ``python -m repro`` does.  Spans go
to the directory named by ``$PERFBENCH_TRACE_DIR``.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402

if __name__ == "__main__":
    sys.path.pop(0)
    layers.install(os.environ["PERFBENCH_TRACE_DIR"])
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
