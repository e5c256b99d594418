"""Tomography MLE parity check, not collected by pytest.

For seeds 0-49 of the packaged config and 1, 6, 12.5 and 200 s per
setting, this draws the default 16-setting tomography counts, fits them
with `tomography.mle_tomography`, and fits them again with scipy's
L-BFGS-B (finite-difference gradient) from the same start.  Per duration
it prints the number of fits, how many took the exact path, how many did
not converge, the BFGS iterations, the mean fit time, the smallest and
largest relative NLL difference to L-BFGS-B (negative: the package found
the lower NLL) and the largest fidelity difference to it.

With --save the per-fit results go to a JSON file; with --against such a
file, written by another version of the package, it also prints how many
count vectors match it, the largest relative NLL excess over it and the
largest fidelity difference to it.  Run from the repository root:

    PYTHONPATH=src python tests/mle_parity.py --save new.json
    PYTHONPATH=<other>/src python tests/mle_parity.py --save old.json
    PYTHONPATH=src python tests/mle_parity.py --against old.json

scipy is a test dependency; the L-BFGS-B reference fit is the one
tests/test_tomography.py uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np
from test_tomography import lbfgsb_fit

from vapornode import simulate, states, tomography
from vapornode.config import load_config

DURATIONS_S = (1.0, 6.0, 12.5, 200.0)
N_SEEDS = 50


def run() -> list[dict]:
    base = load_config()
    fits = []
    for duration in DURATIONS_S:
        for seed in range(N_SEEDS):
            cfg = dataclasses.replace(base, seed=seed)
            tc = simulate.run_tomography(cfg, duration_per_setting_s=duration)
            t0 = time.perf_counter()
            res = tomography.mle_tomography(tc.counts, tc.settings)
            elapsed = time.perf_counter() - t0
            ref_nll, ref_x = lbfgsb_fit(tc.counts, tc.settings)
            ref_rho = tomography._params_to_rho(ref_x)
            ref_rho = (ref_rho + ref_rho.conj().T) / 2.0
            fits.append({
                "duration_s": duration, "seed": seed,
                "counts": tc.counts.tolist(),
                "nll": -res.log_likelihood,
                "fidelity": res.fidelity_to_target,
                "iterations": res.iterations, "converged": res.converged,
                "exact": res.iterations == 0,
                "fit_s": elapsed,
                "lbfgsb_nll": float(ref_nll),
                "lbfgsb_fidelity": states.fidelity(ref_rho,
                                                   states.bell_phi_plus()),
            })
    return fits


def _rel(a: float, b: float) -> float:
    return (a - b) / abs(b)


def report(fits: list[dict], against: list[dict] | None) -> None:
    ref = {(f["duration_s"], f["seed"]): f for f in against or []}
    for duration in DURATIONS_S:
        rows = [f for f in fits if f["duration_s"] == duration]
        rel = [_rel(f["nll"], f["lbfgsb_nll"]) for f in rows]
        iters = [f["iterations"] for f in rows if not f["exact"]] or [0]
        line = (
            f"{duration:6.1f} s/setting: {len(rows)} fits, "
            f"{sum(f['exact'] for f in rows)} exact, "
            f"{sum(not f['converged'] for f in rows)} not converged, "
            f"BFGS iterations median {np.median(iters):.0f} max {max(iters)}, "
            f"mean fit {1e3 * np.mean([f['fit_s'] for f in rows]):.2f} ms; "
            f"vs L-BFGS-B: rel dNLL [{min(rel):.2e}, {max(rel):.2e}], "
            f"max |dF| {max(abs(f['fidelity'] - f['lbfgsb_fidelity']) for f in rows):.1e}"
        )
        if against is not None:
            pairs = [(f, ref[(duration, f["seed"])]) for f in rows]
            same = sum(f["counts"] == r["counts"] for f, r in pairs)
            excess = max(_rel(f["nll"], r["nll"]) for f, r in pairs)
            df = max(abs(f["fidelity"] - r["fidelity"]) for f, r in pairs)
            line += (f"; vs reference: {same}/{len(pairs)} counts identical, "
                     f"max rel NLL excess {excess:.1e}, max |dF| {df:.1e}")
        print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", help="write the per-fit results as JSON")
    parser.add_argument("--against", help="per-fit JSON of another version")
    args = parser.parse_args()
    fits = run()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(fits, f)
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    report(fits, against)


if __name__ == "__main__":
    main()
