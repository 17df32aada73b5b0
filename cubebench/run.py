"""The cubemorse benchmark.

    python3 cubebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cubebench/run.py --smoke

Workloads: braid-v3, cubical-rand, verify-s9 (see ``BENCHMARK.json`` for
why each is there).  The benchmark is a closed loop
with one client: each library pass or CLI child starts only after the
previous one has ended, and nothing runs concurrently.

Untraced (``--trace 0``) runs report the end-to-end metrics:

- ``wall_s``: median library pass after a warm-up pass, over the calls the
  CLI's ``timing_ms`` covers (the input is built outside the timed region);
- ``cli_wall_s``: median spawn-to-exit wall time of a fresh CLI child;
- ``setup_s``: median, over fresh interpreters, of ``import cubemorse``
  plus the workload's input construction;
- ``peak_rss_mb``: median peak RSS of the CLI children, read per child
  with ``os.wait4``.

Library passes and CLI children alternate until ``--seconds`` have passed.
Traced (``--trace 1``) runs alternate untraced passes with passes whose
calls into the package are wrapped in spans, and replay parts of round 1
from outside to count calls; they report the per-layer metrics.

Every pass and every CLI child is checked: pinned outputs, agreement
between passes and with the CLI, and byte-stable ``--json`` output.  A
check that fails counts in ``failed`` and the run goes on.  The last line
of standard output is the JSON result; the line before it is the full
record (versions, input, every sample), which is also written, with the
spans of a traced run, to ``.bench_out/``.  ``--smoke`` runs tiny versions
of every workload through every check and exits 1 if any fails.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "cubemorse" / "__init__.py").is_file():
        sys.exit(f"error: no cubemorse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness

    raise SystemExit(harness.main())
