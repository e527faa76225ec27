"""Regenerate the committed reference outputs in ``reference/``.

    python3 perfbench/make_reference.py

Run from the repository root, at a commit whose outputs are trusted: the
files record what that commit's program produces for ``campus_day``
(voltages, bins, convergence and energy ledger of all 5 x 96 slots) and
``cli_files`` (exit codes and SHA-256 digests of every output).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path.insert(0, str(root / "src"))
    import harness
    import workloads

    gs = harness.import_program(root / "src")
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)

    bundle = gs.benchmark.build_benchmark()
    labels = [gs.congestion.BELOW_LABEL, *gs.congestion.BIN_LABELS]
    branch_ids = [b.id for b in bundle.network.branches]
    v_mag, v_ang, converged, bins, ledgers = [], [], [], [], []
    for scenario in bundle.scenarios:
        result = gs.scenario.run_sweep(bundle.network, scenario, bundle.profiles)
        sols = [r.solution for r in result.records]
        v_mag.append([s.v_mag for s in sols])
        v_ang.append([s.v_ang for s in sols])
        converged.append([s.converged for s in sols])
        hists = [gs.congestion.bin_loadings(s.loading_by_branch()) for s in sols]
        bins.append([[labels.index(h.branch_bins[b]) for b in branch_ids] for h in hists])
        ledger = result.ledger
        ledgers.append([str(ledger.demanded_kwh), str(ledger.served_kwh),
                        str(ledger.unserved_kwh)])
    np.savez_compressed(
        out / "campus_day.npz",
        scenarios=np.array([s.name for s in bundle.scenarios]), labels=np.array(labels),
        branch_ids=np.array(branch_ids), v_mag=np.array(v_mag), v_ang=np.array(v_ang),
        converged=np.array(converged), bins=np.array(bins, dtype=np.uint8),
        ledger=np.array(ledgers))

    work = root / ".perfbench_work" / "reference"
    try:
        cli = workloads.CliFiles(work)
        cli.write_inputs(gs)
        entries = {}
        for label, argv, _ in cli.commands():
            entries[label] = cli.reference_entry(label, argv, workloads.run_cli(gs, argv))
        (out / "cli_files.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
