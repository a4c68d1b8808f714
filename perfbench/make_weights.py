"""Regenerate the release-classifier weights the closed-loop workloads use.

    python3 perfbench/make_weights.py

Same recipe as the test suite's trained-detector fixture: 320 disturbed
sequences from seed 1234, the first 220 trained for 3 float32 epochs with
undersampling from init seed 0. The closed-loop reference outcomes depend on
these exact bits, so after regenerating, update WEIGHTS_SHA256 in
perfbench/bench.py and rewrite the reference with
`python3 perfbench/run.py --write-reference`.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from handover_sim.detector import (  # noqa: E402
    TrainingConfig,
    generate_handover_sequence,
    init_network,
    sample_curve_params,
    save_weights,
    train,
    window_dataset,
)

OUT = Path(__file__).resolve().parent / "detector_weights.npz"


def main() -> None:
    rng = np.random.default_rng(1234)
    seqs = []
    for _ in range(320):
        p = sample_curve_params(rng, disturbed=True)
        seqs.append(generate_handover_sequence(p, p.schedule_end + float(rng.uniform(1.0, 1.5)), 500.0))
    net = init_network(hidden=64, seed=0, dtype=np.float32)
    cfg = TrainingConfig(seed=0, max_epochs=3, balancing="undersample", dtype="float32")
    net, history = train(net, window_dataset(seqs[:220]), None, cfg)
    save_weights(net, OUT, meta={"recipe": "perfbench/make_weights.py", "epochs": len(history)})
    print(OUT.name, hashlib.sha256(OUT.read_bytes()).hexdigest())


if __name__ == "__main__":
    main()
