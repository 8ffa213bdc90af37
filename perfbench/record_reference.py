"""Record the paper-train workload's final train loss for a range of seeds.

    python3 perfbench/record_reference.py 0 64

writes ``perfbench/reference_losses.json``, which the benchmark checks each
paper-train job against (relative tolerance ``PAPER_LOSS_RTOL``).  Re-record
only when the workload itself changes, never to make a check pass.
"""
import json
import os
import shutil
import sys

import run

run.import_package()
import workloads  # noqa: E402


def main(first, stop):
    losses = {}
    workdir = os.path.join(run.WORK_DIR, f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for seed in range(first, stop):
            workload = workloads.PaperTrain(seed, workdir)
            workload.setup()
            losses[str(seed)] = workload.fit().history[-1].train_loss
            print(seed, losses[str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORK_DIR)
        except OSError:
            pass  # another run still uses it
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(losses, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
