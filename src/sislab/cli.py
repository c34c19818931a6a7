"""Command-line front end: INI experiment configs driving the four workflows
(simulate, convergence, dynamics, truncation).

Exit codes: 0 success, 2 bad config or usage (ConfigError), 3 output I/O
failure, 4 parameters outside every supported regime. Any other exception is
a fault in the program: it escapes main, so the process exits 1 with a
traceback. Numeric config values accept plain floats plus dyadic tokens like
2^-6, and serialize_config writes the same tokens back out, so
parse(serialize(cfg)) == cfg.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
from dataclasses import dataclass, replace

from .analysis import (
    ConfigError,
    _whole_steps,
    dynamics_verdicts,
    fit_rate,
    strong_error,
    truncation_table,
    write_dynamics_summary,
    write_error_table,
    write_rate_fit,
    write_truncation_table,
)
from .analysis import classify_dynamics  # noqa: F401  perfbench/spans.py wraps it here
from .model import ModelParams, PreconditionError, regime_report
from .paths import coarsen, generate
from .schemes import (
    SchemeParams,
    lcm_simulate,
    milstein_direct_simulate,
    trajectory_to_csv,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "parse_config",
           "serialize_config"]

_POWER_TOKEN = re.compile(r"2\^(-?\d+)")


def _parse_float(token, where):
    token = token.strip()
    m = _POWER_TOKEN.fullmatch(token)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse number {token!r}") from None


def _parse_int(token, where):
    try:
        return int(token.strip())
    except ValueError:
        raise ConfigError(f"{where}: cannot parse integer {token!r}") from None


def _parse_float_list(token, where):
    parts = token.split()
    if not parts:
        raise ConfigError(f"{where}: expected at least one number")
    return tuple(_parse_float(part, where) for part in parts)


def _format_float(v):
    """Canonical token: integers bare, positive powers of two as 2^k."""
    v = float(v)
    if v == int(v):
        return str(int(v))
    m, e = math.frexp(v)
    if v > 0.0 and m == 0.5:
        return f"2^{e - 1}"
    return repr(v)


def _format_list(values):
    return " ".join(_format_float(v) for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; optional sections default to empty."""

    model: ModelParams
    scheme: SchemeParams
    t_final: float
    n_paths: int
    base_seed: int
    levels: tuple[float, ...] = ()
    h_reference: float | None = None
    dyn_step_sizes: tuple[float, ...] = ()
    n_seeds: int = 100
    trunc_step_sizes: tuple[float, ...] = ()
    trunc_i0: tuple[float, ...] = ()
    horizon: float | None = None
    sets: tuple = ()


def parse_config(path):
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax in {path!r}: {exc}") from exc

    def need(section, key, conv=_parse_float):
        if not cp.has_option(section, key):
            raise ConfigError(f"missing {section}.{key}")
        return conv(cp.get(section, key), f"{section}.{key}")

    def optional(section, key, conv, default):
        if not cp.has_option(section, key):
            return default
        return conv(cp.get(section, key), f"{section}.{key}")

    def checked(where, build, *args, **fields):
        try:
            return build(*args, **fields)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    for section in ("model", "scheme", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    model = checked("model", ModelParams, N=need("model", "N"),
                    beta=need("model", "beta"), sigma=need("model", "sigma"),
                    mu_plus_gamma=need("model", "mu_plus_gamma"),
                    I0=need("model", "I0"))
    scheme = checked("scheme", SchemeParams, h=need("scheme", "h"),
                     alpha=need("scheme", "alpha"), theta=need("scheme", "theta"))

    def step_sizes(section, key, conv=_parse_float_list):
        """Step sizes a command will run, each checked as the scheme's h."""
        value = need(section, key, conv)
        for h in value if isinstance(value, tuple) else (value,):
            checked(f"{section}.{key}", replace, scheme, h=h)
        return value

    kwargs = dict(model=model, scheme=scheme,
                  t_final=need("run", "t_final"),
                  n_paths=need("run", "n_paths", _parse_int),
                  base_seed=need("run", "base_seed", _parse_int))
    if cp.has_section("convergence"):
        kwargs["levels"] = step_sizes("convergence", "levels")
        kwargs["h_reference"] = step_sizes("convergence", "h_reference", _parse_float)
    if cp.has_section("dynamics"):
        kwargs["dyn_step_sizes"] = step_sizes("dynamics", "step_sizes")
        kwargs["n_seeds"] = optional("dynamics", "n_seeds", _parse_int, 100)
    if cp.has_section("truncation"):
        kwargs["trunc_step_sizes"] = step_sizes("truncation", "step_sizes")
        kwargs["trunc_i0"] = optional("truncation", "I0", _parse_float_list,
                                      (model.I0,))
        kwargs["horizon"] = optional("truncation", "horizon", _parse_float, None)

    sets = []
    for name in cp.sections():
        if not name.startswith("set."):
            continue
        label = _parse_int(name[4:], name)
        n_val = need(name, "N")
        mp = checked(name, ModelParams, N=n_val, beta=need(name, "beta"),
                     sigma=need(name, "sigma"),
                     mu_plus_gamma=need(name, "mu_plus_gamma"),
                     I0=n_val / 2.0)  # placeholder; runs supply I0
        sets.append((label, mp))
    sets.sort(key=lambda pair: pair[0])
    kwargs["sets"] = tuple(sets)
    for _, mp in sets or [(None, model)]:  # the truncation command's sets
        for i0 in kwargs.get("trunc_i0", ()):
            checked("truncation.I0", replace, mp, I0=i0)
    return ExperimentConfig(**kwargs)


def serialize_config(cfg):
    """Write a config back as canonical INI text (see parse_config)."""
    m, s = cfg.model, cfg.scheme
    lines = [
        "[model]",
        f"N = {_format_float(m.N)}",
        f"beta = {_format_float(m.beta)}",
        f"sigma = {_format_float(m.sigma)}",
        f"mu_plus_gamma = {_format_float(m.mu_plus_gamma)}",
        f"I0 = {_format_float(m.I0)}",
        "",
        "[scheme]",
        f"h = {_format_float(s.h)}",
        f"alpha = {_format_float(s.alpha)}",
        f"theta = {_format_float(s.theta)}",
        "",
        "[run]",
        f"t_final = {_format_float(cfg.t_final)}",
        f"n_paths = {cfg.n_paths}",
        f"base_seed = {cfg.base_seed}",
    ]
    if cfg.levels:
        lines += ["", "[convergence]",
                  f"levels = {_format_list(cfg.levels)}",
                  f"h_reference = {_format_float(cfg.h_reference)}"]
    if cfg.dyn_step_sizes:
        lines += ["", "[dynamics]",
                  f"step_sizes = {_format_list(cfg.dyn_step_sizes)}",
                  f"n_seeds = {cfg.n_seeds}"]
    if cfg.trunc_step_sizes:
        lines += ["", "[truncation]",
                  f"step_sizes = {_format_list(cfg.trunc_step_sizes)}",
                  f"I0 = {_format_list(cfg.trunc_i0)}"]
        if cfg.horizon is not None:
            lines.append(f"horizon = {_format_float(cfg.horizon)}")
    for label, mp in cfg.sets:
        lines += ["", f"[set.{label}]",
                  f"N = {_format_float(mp.N)}",
                  f"beta = {_format_float(mp.beta)}",
                  f"sigma = {_format_float(mp.sigma)}",
                  f"mu_plus_gamma = {_format_float(mp.mu_plus_gamma)}"]
    return "\n".join(lines) + "\n"


def _h_label(h):
    """File-name tag for a step size: 2^-2 -> 2m2, 2^3 -> 2p3, 0.3 -> 0p3."""
    m, e = math.frexp(h)
    if h > 0 and m == 0.5:
        k = e - 1
        return f"2p{k}" if k >= 0 else f"2m{-k}"
    return repr(float(h)).replace(".", "p").replace("-", "m")


def _resolve_seed(args, cfg):
    return args.seed if args.seed is not None else cfg.base_seed


def _resolve_paths(args, default):
    n_paths = args.paths if args.paths is not None else default
    if n_paths <= 0:
        raise ConfigError(f"path count must be positive, got {n_paths}")
    return n_paths


def cmd_simulate(args):
    cfg = parse_config(args.config)
    seed = _resolve_seed(args, cfg)
    steps = _whole_steps(cfg.t_final, cfg.scheme.h, "t_final")
    grid = generate(base_seed=seed, path_index=0, t_final=cfg.t_final,
                    fine_steps=steps)
    inc = coarsen(grid, 0)
    if args.scheme == "milstein":
        traj = milstein_direct_simulate(inc, cfg.model)
    else:
        traj = lcm_simulate(inc, cfg.model, cfg.scheme)
    if args.out:
        with open(args.out, "w") as fh:
            trajectory_to_csv(traj, fh)
    else:
        trajectory_to_csv(traj, sys.stdout)
    return 0


def cmd_convergence(args):
    cfg = parse_config(args.config)
    seed = _resolve_seed(args, cfg)
    if args.self_test:
        s = SchemeParams(h=2.0**-8, alpha=cfg.scheme.alpha, theta=cfg.scheme.theta)
        table = strong_error(cfg.model, s, levels=[2.0**-5, 2.0**-4, 2.0**-3],
                             n_paths=200, base_seed=seed, t_final=1.0)
        fit = fit_rate(table)
        ok = all(e > 0.0 for e in table.errors) and 0.5 < fit.q < 1.5
        state = "ok" if ok else "FAILED"
        print(f"self-test {state}: q={fit.q:.3f} over 200 paths, "
              f"errors={['%.2e' % e for e in table.errors]}")
        return 0 if ok else 1
    if not cfg.levels or cfg.h_reference is None:
        raise ConfigError(
            "missing [convergence] section with levels and h_reference")
    n_paths = _resolve_paths(args, cfg.n_paths)
    s_ref = SchemeParams(h=cfg.h_reference, alpha=cfg.scheme.alpha,
                         theta=cfg.scheme.theta)
    table = strong_error(cfg.model, s_ref, levels=cfg.levels, n_paths=n_paths,
                         base_seed=seed, t_final=cfg.t_final)
    fit = fit_rate(table)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "error_table.csv"), "w") as fh:
        write_error_table(table, fh)
    with open(os.path.join(outdir, "rate_fit.csv"), "w") as fh:
        write_rate_fit(fit, fh)
    log_h = [math.log(x) for x in table.step_sizes]
    log_e = [math.log(x) for x in table.errors]
    with open(os.path.join(outdir, "loglog.csv"), "w") as fh:
        fh.write("log_h,log_error,order_one_reference\n")
        for lh, le in zip(log_h, log_e):
            ref = log_e[-1] + (lh - log_h[-1])  # slope-1 line through coarsest
            fh.write(f"{float(lh)!r},{float(le)!r},{float(ref)!r}\n")
    print(f"fitted rate q = {fit.q:.4f} (residual {fit.residual:.3e}) "
          f"from {len(table.errors)} levels at {n_paths} paths -> {outdir}")
    return 0


def cmd_dynamics(args):
    cfg = parse_config(args.config)
    if not cfg.dyn_step_sizes:
        raise ConfigError("missing [dynamics] section with step_sizes")
    rep = regime_report(cfg.model)
    if rep.f_max_sigma is not None:
        expected = "Extinct"
    elif rep.persistence_lambda is not None:
        expected = "Persistent"
    else:
        raise PreconditionError(
            "parameters fall in neither the extinction nor the persistence "
            "regime; long-run classification is undefined here")
    seed = _resolve_seed(args, cfg)
    n_seeds = _resolve_paths(args, cfg.n_seeds)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for h in cfg.dyn_step_sizes:
        verdicts = dynamics_verdicts(cfg.model, replace(cfg.scheme, h=h),
                                     cfg.t_final, n_seeds, seed)
        matched = sum(verdict.kind == expected for verdict in verdicts)
        with open(os.path.join(outdir, f"dynamics_{_h_label(h)}.csv"), "w") as fh:
            write_dynamics_summary(enumerate(verdicts), fh)
        print(f"h = {_format_float(h)}: {matched}/{n_seeds} runs {expected}")
    return 0


def cmd_truncation(args):
    cfg = parse_config(args.config)
    if not cfg.trunc_step_sizes:
        raise ConfigError("missing [truncation] section with step_sizes")
    seed = _resolve_seed(args, cfg)
    n_paths = _resolve_paths(args, cfg.n_paths)
    sets = cfg.sets or ((1, cfg.model),)
    horizon = cfg.horizon if cfg.horizon is not None else cfg.t_final
    tbl = truncation_table([mp for _, mp in sets],
                           I0s=cfg.trunc_i0 or (cfg.model.I0,),
                           hs=cfg.trunc_step_sizes, n_paths=n_paths,
                           horizon=horizon, base_seed=seed,
                           alpha=cfg.scheme.alpha, theta=cfg.scheme.theta,
                           labels=[label for label, _ in sets])
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "truncation.csv"), "w") as fh:
        write_truncation_table(tbl, fh)
    print(f"{tbl.percent.size} table cells over {n_paths} paths "
          f"(max {tbl.percent.max():.4f}%) -> {outdir}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sis-lab",
        description="Truncated log-space Milstein experiments for the "
                    "stochastic SIS model")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment INI file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override base_seed from the config")
        sp.add_argument("--paths", type=int, default=None,
                        help="override the path/seed count from the config")
        sp.add_argument("--out", default=None,
                        help="output file (simulate) or directory (others)")

    p = sub.add_parser("simulate", help="write one trajectory as CSV")
    common(p)
    p.add_argument("--scheme", choices=("lcm", "milstein"), default="lcm",
                   help="lcm: truncated log-space scheme (default); "
                        "milstein: unguarded direct scheme")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence",
                       help="coupled-path strong errors and rate fit")
    common(p)
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="run a small built-in convergence check and exit")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("dynamics",
                       help="classify long-run behaviour per seed and step size")
    common(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("truncation",
                       help="truncation-frequency table over parameter sets")
    common(p)
    p.set_defaults(func=cmd_truncation)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
