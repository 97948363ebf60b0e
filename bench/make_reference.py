"""Write the reference CSVs that the output checks compare against.

    python3 bench/make_reference.py

Run it only on a commit whose output is known to be right: it stores the
CLI output of every job that names a reference (the first
``REFERENCE_JOBS`` default-seed jobs of ``rate_curves`` and
``shadow_traces``, and every ``iteration_counts`` suite job) as
``reference/<workload>/<job.reference>.csv``.
"""

import os
import sys

import worker


def main() -> int:
    package = worker.import_package()
    import workloads

    for name in ("rate_curves", "iteration_counts", "shadow_traces"):
        wl = workloads.WORKLOADS[name]
        jobs = [wl.job(workloads.DEFAULT_SEED, i, None)
                for i in range(wl.suite_size or workloads.REFERENCE_JOBS)]
        os.makedirs(os.path.join(workloads.REFERENCE_DIR, name), exist_ok=True)
        for job in jobs:
            rc, out, _ = worker.call(package.cli, job.argv)
            if rc != 0:
                print(f"error: {' '.join(job.argv)} exited {rc}", file=sys.stderr)
                return 1
            with open(workloads.reference_path(name, job), "w") as fh:
                fh.write(out)
            wl.check(job, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
