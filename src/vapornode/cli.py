"""Command-line entry point: run experiments from a config file and emit
CSV curves, JSON summaries, and a run manifest.

Exit codes: 0 success, 2 config error, 3 runtime error (a non-finite
output value included), 4 completed with warnings (non-convergence /
lower-bound flags), 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, analysis, experiments, optics, simulate, spectra, tomography
from .config import ConfigError, NodeConfig, load_config
from .histograms import write_csv
from .states import MeasurementSetting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_WARNINGS = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit (2) collides with config errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _check_finite(name: str, payload: dict) -> None:
    """Raise ValueError naming the JSON file and the top-level key of
    payload that holds a non-finite number."""
    for key, value in payload.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(f"{name}: {key} is not finite") from None


class _Run:
    """Collects output paths and warnings, writes the manifest at the end."""

    def __init__(self, config: NodeConfig, args):
        self.config = config
        self.out = Path(args.out)  # made by the first file written
        self.command = args.argv
        self.start = _utc_now()
        self.outputs = []
        self.warnings = []

    def path(self, name: str) -> Path:
        p = self.out / name
        self.outputs.append(name)
        return p

    def write_json(self, name: str, payload: dict) -> None:
        _check_finite(name, payload)
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.path(name), "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"warning: {message}", file=sys.stderr)

    def finish(self) -> int:
        manifest = {
            "config_hash": self.config.config_hash(),
            "seed": self.config.seed,
            "version": __version__,
            "command": self.command,
            "start_time": self.start,
            "end_time": _utc_now(),
            "outputs": sorted(self.outputs),
            "warnings": self.warnings,
        }
        # the output list is taken before the manifest adds itself to it
        self.write_json("manifest.json", manifest)
        return EXIT_WARNINGS if self.warnings else EXIT_OK


def _cmd_histograms(args, config: NodeConfig, metrics_fn) -> int:
    metrics, runs = metrics_fn(config, args.trials)
    payload = dataclasses.asdict(metrics)
    _check_finite("metrics.json", payload)  # before the first file
    run = _Run(config, args)
    for cond in ("memory", "input", "no_input"):
        getattr(runs, cond).to_csv(run.path(f"hist_{cond}.csv"))
    run.write_json("metrics.json", payload)
    if metrics.snr_lower_bound:
        run.warn("empty noise window: SNR is a lower bound")
    return run.finish()


def _parse_settings(text: str):
    settings = []
    for i, token in enumerate(text.split(",")):
        try:
            settings.append(MeasurementSetting(token.strip()))
        except ValueError as exc:
            raise ConfigError(f"settings[{i}]: {exc}") from None
    if not tomography.informationally_complete(settings):
        raise ConfigError("settings: not informationally complete")
    return settings


def _cmd_tomography(args, config: NodeConfig) -> int:
    settings = None if args.settings is None else _parse_settings(args.settings)
    counts = simulate.run_tomography(
        config, settings=settings, duration_per_setting_s=args.duration
    )
    result = tomography.mle_tomography(counts.counts, counts.settings)
    run = _Run(config, args)
    write_csv(run.path("counts.csv"), "setting,triggers,coincidences",
              ("", "", ""), zip([s.label for s in counts.settings],
                                counts.triggers_per_setting.tolist(),
                                counts.counts.tolist()))
    run.write_json("tomography.json", result.to_json_dict())
    if not result.converged:
        run.warn("likelihood optimizer did not report convergence")
    return run.finish()


def _cmd_sweep_window(args, config: NodeConfig) -> int:
    sweep = experiments.detection_window_sweep(config, args.trials)
    run = _Run(config, args)
    sweep.to_csv(run.path("sweep.csv"))
    run.write_json("sweep.json", {
        "window_ns": (sweep.window_sizes_s * 1e9).tolist(),
        "rate_pairs_per_s": sweep.rates_pairs_per_s.tolist(),
        "fidelity": sweep.fidelities.tolist(),
        "per_trial": sweep.per_trial_success.tolist(),
    })
    if sweep.lower_bound:
        run.warn("empty noise window: SNR is a lower bound")
    return run.finish()


def _cmd_utility(args, config: NodeConfig) -> int:
    times = np.linspace(0.0, args.max_time_us * 1e-6, args.points)
    fids = experiments.model_fidelity_curve(config, times)
    run = _Run(config, args)
    write_csv(run.path("utility.csv"), "time_us,fidelity", (".4f", ".6f"),
              ((t * 1e6, fi) for t, fi in zip(times, fids)))
    summary = {}
    unbounded = False
    for thr in (experiments.DISTILLATION_THRESHOLD,
                experiments.SEPARABILITY_THRESHOLD):
        ut = analysis.utility_time(times, fids, thr)
        summary[f"utility_time_us_at_{thr}"] = ut.time_s * 1e6
        summary[f"bounded_at_{thr}"] = ut.bounded
        unbounded = unbounded or not ut.bounded
    run.write_json("utility.json", summary)
    if unbounded:
        run.warn("fidelity stays above a threshold over the scanned range")
    return run.finish()


def _cmd_spectral_scan(args, config: NodeConfig) -> int:
    model = config.spectral_model
    cavity = config.source.telecom_cavity
    mem_model = config.memory_acceptance
    detunings = np.linspace(-args.band_ghz / 2.0, args.band_ghz / 2.0,
                            args.points) * 1e9
    run = _Run(config, args)
    eta, rate = spectra.heralding_vs_cavity_detuning(model, cavity, detunings)
    mem = spectra.memory_efficiency_vs_detuning(
        mem_model, model.paired_nir_detuning(detunings)
    )
    write_csv(run.path("spectral.csv"),
              "cavity_detuning_ghz,heralding_eta,relative_rate,"
              "memory_acceptance", (".4f", ".6f", ".6g", ".6f"),
              zip((detunings / 1e9).tolist(), eta.tolist(), rate.tolist(),
                  mem.tolist()))
    best = spectra.select_operating_point(model, cavity, mem_model,
                                          scan_band_hz=args.band_ghz * 1e9)
    eta, rate = spectra.heralding_vs_cavity_detuning(model, cavity, best)
    run.write_json("spectral.json", {
        "operating_point_ghz": best / 1e9,
        "heralding_eta_at_operating_point": eta,
        "relative_rate_at_operating_point": rate,
    })
    return run.finish()


def _cmd_filter_design(args, config: NodeConfig) -> int:
    cascade = config.filter_cascade
    run = _Run(config, args)
    detunings = np.linspace(-args.band_ghz / 2.0, args.band_ghz / 2.0,
                            args.points) * 1e9
    write_csv(run.path("filter.csv"),
              "detuning_ghz,suppression_db,transmission", (".4f", ".4f", ".6g"),
              zip((detunings / 1e9).tolist(),
                  optics.cascade_suppression_db(cascade, detunings).tolist(),
                  optics.cascade_transmission(cascade, detunings).tolist()))
    run.write_json("filter.json", {
        "query_detuning_ghz": args.query_ghz,
        "suppression_db_at_query": optics.cascade_suppression_db(
            cascade, args.query_ghz * 1e9
        ),
        "effective_fwhm_ghz": optics.cascade_effective_fwhm(cascade) / 1e9,
    })
    return run.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vapornode",
                     description="Warm-vapor memory node simulator")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, trials=False):
        p.add_argument("--config", default=None, help="YAML config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default="run_out", help="output directory")
        if trials:
            p.add_argument("--trials", type=int, default=1_000_000)

    common(sub.add_parser("solo", help="clocked weak-pulse histograms"),
           trials=True)
    common(sub.add_parser("source", help="triggered-photon histograms"),
           trials=True)

    p = sub.add_parser("tomography", help="state reconstruction")
    common(p)
    p.add_argument("--duration", type=float, default=12.5,
                   help="seconds per setting")
    p.add_argument("--settings", default=None,
                   help="comma-separated label pairs, e.g. HH,HV,...")

    p = sub.add_parser("sweep-window", help="rate/fidelity vs window size")
    common(p, trials=True)

    p = sub.add_parser("utility", help="model fidelity decay and utility time")
    common(p)
    p.add_argument("--max-time-us", type=float, default=8.0)
    p.add_argument("--points", type=int, default=401)

    p = sub.add_parser("spectral-scan", help="heralding vs cavity detuning")
    common(p)
    p.add_argument("--band-ghz", type=float, default=7.0)
    p.add_argument("--points", type=int, default=141)

    p = sub.add_parser("filter-design", help="cascade suppression curve")
    common(p)
    p.add_argument("--band-ghz", type=float, default=16.0)
    p.add_argument("--points", type=int, default=321)
    p.add_argument("--query-ghz", type=float, default=6.8347)
    return parser


_COMMANDS = {
    "solo": lambda a, c: _cmd_histograms(a, c, experiments.solo_metrics),
    "source": lambda a, c: _cmd_histograms(a, c, experiments.source_metrics),
    "tomography": _cmd_tomography,
    "sweep-window": _cmd_sweep_window,
    "utility": _cmd_utility,
    "spectral-scan": _cmd_spectral_scan,
    "filter-design": _cmd_filter_design,
}


# (argparse dest, check, requirement); a flag a subcommand lacks is skipped.
# GHz values must stay finite in Hz.  A zero --duration passes: it runs and
# fails for want of counts.
_NUMERIC_FLAGS = (
    ("trials", lambda v: v >= 1, ">= 1"),
    ("workers", lambda v: v >= 1, ">= 1"),
    ("points", lambda v: v >= 1, ">= 1"),
    ("band_ghz", lambda v: v > 0 and math.isfinite(v * 1e9),
     "> 0 and finite in Hz"),
    ("max_time_us", lambda v: v > 0 and math.isfinite(v), "finite and > 0"),
    ("duration", lambda v: v >= 0 and math.isfinite(v), "finite and >= 0"),
    ("query_ghz", lambda v: math.isfinite(v * 1e9), "finite in Hz"),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    args.argv = argv  # recorded in the manifest
    for name, ok, need in _NUMERIC_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be {need}, got {value}", file=sys.stderr)
            return EXIT_USAGE

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    try:
        config = load_config(args.config, overrides=overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # numpy's warnings are held back so that an error line comes first; a
    # forked pool worker inherits the hook and prints its own at once, in
    # one write so that lines from two workers cannot interleave
    held, pid = [], os.getpid()

    def hold(message, category, filename, lineno, file=None, line=None):
        text = (f"warning: {Path(filename).name}:{lineno}: "
                f"{category.__name__}: {message}")
        if os.getpid() == pid:
            held.append(text)
        else:
            sys.stderr.write(text + "\n")

    with warnings.catch_warnings():
        warnings.showwarning = hold
        try:
            code = _COMMANDS[args.cmd](args, config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"runtime error: {exc}", file=sys.stderr)
            code = EXIT_RUNTIME
    for text in held:
        print(text, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
