"""Command-line front end: dataset generation, reference solving, single runs,
sensitivity grids, and the invariant suites.

Exit codes: 0 success, 1 verify failure, 2 configuration error, 3 divergence.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .bench import ReferenceSolution, build_method, check_eta_grid, export_csv, grid_cells, grid_search, reference_solve
from .dataio import SyntheticMode, SyntheticSpec, gen_synthetic, parse_libsvm, serialize_libsvm
from .optimizers import ConfigurationError, RunConfig, ScalingScheme, constant, inv_sqrt, run
from .problems import LossKind, Problem

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

_SYNTH_MODES = {
    "interp": SyntheticMode.INTERPOLATING,
    "noisy": SyntheticMode.NOISY_LEAST_SQUARES,
    "logistic": SyntheticMode.LOGISTIC,
}


def _fail_config(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Parse `mode:key=val,...`, e.g. `interp:n=100,d=10,seed=1`."""
    try:
        mode_name, _, rest = text.partition(":")
        mode = _SYNTH_MODES[mode_name]
        kv = dict(item.split("=", 1) for item in rest.split(",") if item)
        return SyntheticSpec(
            n=int(kv.pop("n")),
            d=int(kv.pop("d")),
            seed=int(kv.pop("seed", "0")),
            mode=mode,
            noise_std=float(kv.pop("std", "0.5" if mode is SyntheticMode.NOISY_LEAST_SQUARES else "0")),
            flip_fraction=float(kv.pop("flip", "0.1")),
        )
    except (KeyError, ValueError) as exc:
        _fail_config(
            f"--synthetic: expected mode:n=..,d=..[,seed=..] with mode in {sorted(_SYNTH_MODES)}; got {text!r} ({exc})"
        )


def parse_eta_grid(text: str) -> np.ndarray:
    """Parse `logspace:lo,hi,k` or a comma-separated list of values."""
    if text.startswith("logspace:"):
        try:
            lo, hi, k = text[len("logspace:"):].split(",")
            return np.logspace(math.log10(float(lo)), math.log10(float(hi)), int(k))
        except ValueError:
            _fail_config(f"--eta-grid: expected logspace:lo,hi,k with lo, hi > 0; got {text!r}")
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        _fail_config(f"--eta-grid: expected logspace:lo,hi,k or comma-separated numbers; got {text!r}")


def _resolve_data_path(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        base = os.environ.get("FUVALKIT_DATA")
        if base and (Path(base) / path).exists():
            return Path(base) / path
    return p


def load_problem(data: str | None, synthetic: str | None, loss: str) -> Problem:
    if (data is None) == (synthetic is None):
        _fail_config("specify exactly one of --data or --synthetic")
    if synthetic is not None:
        return gen_synthetic(parse_synthetic_spec(synthetic))[0]
    path = _resolve_data_path(data)
    if not path.exists():
        _fail_config(f"--data: no such file {data!r} (searched FUVALKIT_DATA too)")
    kind = LossKind.LOGISTIC if loss == "logistic" else LossKind.LEAST_SQUARES
    with open(path) as fh:
        return parse_libsvm(fh, loss_kind=kind)


def problem_digest(problem: Problem) -> str:
    payload = serialize_libsvm(problem) + problem.loss_kind.value
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_cache_path(problem: Problem, tol: float, cache_dir: Path) -> Path:
    # repr keeps every digit, so 1e-3 and 1.4e-3 get different files
    return cache_dir / f"ref-{problem_digest(problem)}-{tol!r}.npz"


def save_reference(ref: ReferenceSolution, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        w_star=ref.w_star,
        f_star=ref.f_star,
        per_sample_f_star=ref.per_sample_f_star,
        grad_norm_at_solution=ref.grad_norm_at_solution,
        sigma=ref.sigma,
        tol=ref.tol,
        converged=ref.converged,
    )


def load_reference(path: Path) -> ReferenceSolution:
    data = np.load(path)
    return ReferenceSolution(
        w_star=data["w_star"],
        f_star=float(data["f_star"]),
        per_sample_f_star=data["per_sample_f_star"],
        grad_norm_at_solution=float(data["grad_norm_at_solution"]),
        sigma=float(data["sigma"]),
        tol=float(data["tol"]),
        converged=bool(data["converged"]),
    )


def get_reference(
    problem: Problem,
    reference: str | None,
    solve_reference: bool,
    tol: float,
    out_dir: Path,
) -> ReferenceSolution | None:
    if reference is not None:
        path = Path(reference)
        if not path.exists():
            _fail_config(f"--reference: no such file {reference!r}")
        ref = load_reference(path)
    elif solve_reference:
        cache = reference_cache_path(problem, tol, out_dir)
        if cache.exists():
            ref = load_reference(cache)
        else:
            ref = _solve_reference(problem, tol)
            save_reference(ref, cache)
    else:
        return None
    if not ref.converged:
        click.echo(
            f"warning: the reference is NOT converged (|g| = {ref.grad_norm_at_solution:.3g} > "
            f"tol {ref.tol:.3g}); suboptimalities are measured against it",
            err=True,
        )
    return ref


def _solve_reference(problem: Problem, tol: float) -> ReferenceSolution:
    try:
        return reference_solve(problem, tol=tol)
    except ConfigurationError as exc:
        _fail_config(str(exc))


problem_options = [
    click.option("--data", default=None, help="LIBSVM file (FUVALKIT_DATA used as fallback dir)."),
    click.option("--synthetic", default=None, help="Synthetic spec, e.g. interp:n=100,d=10,seed=1."),
    click.option(
        "--loss",
        type=click.Choice(["logistic", "ls"]),
        default="logistic",
        show_default=True,
        help="Loss for --data files.",
    ),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return wrap


@click.group()
def main():
    """Adaptive-stepsize optimization benchmark toolkit."""


@main.command()
@click.option("--synthetic", required=True, help="Synthetic spec, e.g. interp:n=100,d=10,seed=1.")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output LIBSVM file.")
def gen(synthetic, out):
    """Generate a seeded synthetic dataset in LIBSVM text format."""
    problem, _ = gen_synthetic(parse_synthetic_spec(synthetic))
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_libsvm(problem))
    click.echo(f"wrote {problem.n} examples (d={problem.dim}) to {path}")


@main.command()
@add_options(problem_options)
@click.option("--tol", default=1e-10, show_default=True, help="Gradient-norm stopping tolerance.")
@click.option("--out", default="runs", show_default=True, help="Cache directory for the solution.")
def reference(data, synthetic, loss, tol, out):
    """Solve the problem to high precision and cache the solution."""
    problem = load_problem(data, synthetic, loss)
    out_dir = Path(out)
    cache = reference_cache_path(problem, tol, out_dir)
    ref = _solve_reference(problem, tol)
    save_reference(ref, cache)
    status = "converged" if ref.converged else "NOT converged"
    click.echo(f"f_star={ref.f_star:.17g} sigma={ref.sigma:.17g} ({status}) -> {cache}")
    if not ref.converged:
        sys.exit(EXIT_DIVERGED)


@main.command()
@add_options(problem_options)
@click.option(
    "--method",
    type=click.Choice(["gd", "sgd", "sps", "sps+", "fuval", "fuval-full", "proxlin"]),
    required=True,
)
@click.option(
    "--scheme",
    type=click.Choice([s.value for s in ScalingScheme]),
    default="naive",
    show_default=True,
    help="Rule mapping --eta to the two step scales.",
)
@click.option("--eta", default=0.5, show_default=True, help="Stepsize factor.")
@click.option("--gamma", default=1.0, show_default=True, help="Relaxation factor in (0, 1].")
@click.option("--penalty-c", default=math.inf, help="Step-multiplier clamp (default: unclamped).")
@click.option(
    "--schedule",
    type=click.Choice(["constant", "inv-sqrt"]),
    default="constant",
    show_default=True,
)
@click.option("--epochs", default=None, type=int, help="Run length in passes over the data.")
@click.option("--iterations", default=None, type=int, help="Run length in single steps.")
@click.option("--seed", default=0, show_default=True)
@click.option("--eval-every", default=10, show_default=True)
@click.option("--out", default="runs", show_default=True, help="Output directory.")
@click.option("--reference", "reference_path", default=None, help="Precomputed reference file.")
@click.option("--solve-reference", is_flag=True, default=False, help="Solve and cache f* first.")
@click.option("--ref-tol", default=1e-10, show_default=True)
def fit(
    data, synthetic, loss, method, scheme, eta, gamma, penalty_c, schedule,
    epochs, iterations, seed, eval_every, out,
    reference_path, solve_reference, ref_tol,
):
    """Run one method once and write its trace CSV plus a .meta sidecar."""
    problem = load_problem(data, synthetic, loss)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = get_reference(problem, reference_path, solve_reference, ref_tol, out_dir)
    if method in ("sps", "sps+") and ref is None:
        _fail_config(f"--method {method} needs --reference or --solve-reference")

    try:
        spec = build_method(
            method, eta, ScalingScheme(scheme), problem, np.zeros(problem.dim), gamma, penalty_c,
            inv_sqrt if schedule == "inv-sqrt" else constant,
        )
        config = RunConfig(
            iterations=iterations,
            epochs=epochs,
            seed=seed,
            reference=ref,
            eval_every=eval_every,
        )
        trace = run(problem, spec, config)
    except ConfigurationError as exc:
        _fail_config(str(exc))

    trace.meta.setdefault("scheme", scheme)
    if ref is not None:
        trace.meta["reference_converged"] = ref.converged
        trace.meta["reference_grad_norm"] = ref.grad_norm_at_solution
    stem = f"{method.replace('+', 'plus')}-{scheme}-eta{eta:g}-seed{seed}"
    export_csv(trace, out_dir / f"{stem}.csv")
    final = trace.final_subopt()
    click.echo(f"final f = {trace.f[-1]:.17g}" + (f", suboptimality = {final:.17g}" if ref else ""))
    click.echo(f"trace -> {out_dir / (stem + '.csv')}")
    if trace.diverged:
        click.echo("run diverged", err=True)
        sys.exit(EXIT_DIVERGED)


@main.command()
@add_options(problem_options)
@click.option("--methods", default="gd,fuval-full", show_default=True, help="Comma-separated families.")
@click.option("--schemes", default="naive", show_default=True, help="Comma-separated scaling schemes.")
@click.option("--eta-grid", default="logspace:1e-4,1e2,25", show_default=True)
@click.option("--epochs", default=None, type=int)
@click.option("--iterations", default=None, type=int)
@click.option("--seeds", default="0", show_default=True, help="Comma-separated seeds.")
@click.option("--jobs", default=os.cpu_count() or 1, show_default="all processors")
@click.option("--out", default="runs/sensitivity.csv", show_default=True)
@click.option(
    "--reference", "reference_path", default=None, help="Precomputed reference file (default: solve and cache f*)."
)
@click.option("--ref-tol", default=1e-10, show_default=True)
def grid(
    data, synthetic, loss, methods, schemes, eta_grid, epochs, iterations,
    seeds, jobs, out, reference_path, ref_tol,
):
    """Stepsize-sensitivity sweep; writes one CSV row per (method, scheme, eta)."""
    # every option is read before the problem is loaded or its reference solved
    families = [m.strip() for m in methods.split(",") if m.strip()]
    for fam in families:
        if fam not in ("gd", "sgd", "fuval", "fuval-full"):
            _fail_config(f"unknown method family {fam!r} for grid")
    try:
        scheme_list = [ScalingScheme(s.strip()) for s in schemes.split(",") if s.strip()]
        RunConfig(iterations=iterations, epochs=epochs).total_steps(0)  # one run length, not negative
    except ValueError as exc:
        _fail_config(str(exc))
    try:
        seed_list = [int(s) for s in seeds.split(",")]
    except ValueError:
        _fail_config(f"--seeds: expected comma-separated integers, got {seeds!r}")
    try:
        etas = check_eta_grid(parse_eta_grid(eta_grid))
    except ConfigurationError as exc:
        _fail_config(f"--eta-grid: {exc}")

    problem = load_problem(data, synthetic, loss)
    w0 = np.zeros(problem.dim)
    for cell in grid_cells(families, scheme_list, etas):  # every cell grid_search builds
        try:
            build_method(cell.method_family, cell.eta, cell.scheme, problem, w0)
        except ConfigurationError as exc:
            _fail_config(f"grid cell {cell.method_family} at eta={cell.eta:g}: {exc}")
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    ref = get_reference(problem, reference_path, True, ref_tol, out_path.parent)

    try:
        table = grid_search(
            problem,
            ref,
            families,
            scheme_list,
            etas,
            iterations=iterations,
            epochs=epochs,
            seeds=seed_list,
            jobs=jobs,
        )
    except ConfigurationError as exc:
        _fail_config(str(exc))
    export_csv(table, out_path)
    click.echo(f"{len(table.rows)} rows -> {out_path}")


@main.command()
@click.argument("suite", default="all")
def verify(suite):
    """Run an invariant suite: projections, equivalence, identities, bounds, all."""
    from .verify import SUITES, run_suite

    if suite != "all" and suite not in SUITES:
        _fail_config(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or all")
    results = run_suite(suite)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        click.echo(f"{status}  {r.name}{detail}")
        ok = ok and r.passed
    sys.exit(EXIT_OK if ok else EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
