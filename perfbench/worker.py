"""One workload iteration in a fresh, single-threaded Python process.

    python3 perfbench/worker.py SPEC.json

SPEC.json holds the checkout root, the `ebggm` command line, an optional
library call to make after the command, whether to trace, and where to
write the result.  The parent records when it spawned this process and when
the process exited; this process records when `ebggm.cli` finished
importing.  Timestamps use time.monotonic, which on Linux reads the
system-wide CLOCK_MONOTONIC, so they compare across the two processes.
"""

import json
import os
import sys
import time


def _import_cli(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ebggm.cli

    where = os.path.realpath(ebggm.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"ebggm was imported from {where}, not from {src}")
    return ebggm.cli


def _mle_p5(data_csv, out_path):
    """exact_marginal_mle on a p=5 dataset; the surface goes to out_path."""
    import numpy as np
    from ebggm.dataio import ingest_csv
    from ebggm.exact import exact_marginal_mle

    stats, _ = ingest_csv(data_csv)
    surface = exact_marginal_mle(stats, 1.0)
    np.save(out_path, surface.log_lik)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["root"])
    t_imported = time.monotonic()
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        recorder = spans.Recorder(t_imported)
        recorder.install()
    code = cli.main(spec["argv"])
    if code == 0 and spec.get("mle_data"):
        _mle_p5(spec["mle_data"], spec["mle_out"])
    result = {"t_imported": t_imported, "code": code}
    if recorder is not None:
        result["trace"] = recorder.finish(spec["spans_out"])
    with open(spec["result_out"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
