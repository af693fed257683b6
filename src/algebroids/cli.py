"""Command-line verification surface.

Every checker in the library but ``check_A_invariant`` is reachable
from a subcommand; that one is the precondition of the library's
covariant differential ``d_im``, which no subcommand runs.  Reports
are deterministic for a fixed (model, seed, samples) triple and are
emitted either as a human table or as a single JSON document.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage/unknown subcommand, 3 model errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from .algebroid import (
    ConstructionRefused,
    IdealBundle,
    canonical_representation,
    cartan_build_connection,
    check_axioms,
)
from .bundles import PointMap, _anchored, _stack
from .expr import EvalError, ParseError, SamplingError
from .factory import ExampleSpec, make_example, transitive_im_connection
from .imforms import (
    CenterDegeneracyError,
    FLATNESS_ORDER,
    build_semidirect,
    chain_map,
    check_im_form,
    check_structure_equations,
    classify_flatness,
    coupling_to_im,
    curvature_im,
    extract_coupling,
    kernel_flat_two_form,
)
from .groupoid import (
    EquivarianceError,
    FlowRegionError,
    check_groupoid_properties,
    connection_from_splitting,
    covariant_exterior_D,
    differentiate_to_im,
    numeric_extract_coupling,
)
from .modelio import ModelError, load_model
from .rankone import check_rank_one, extract_rank_one, verify_witness
from .sampling import Report, SamplePlan, sup

__all__ = ["run", "main", "SUBCOMMANDS"]

SUBCOMMANDS = (
    "verify-algebroid",
    "verify-ideal",
    "verify-im",
    "coupling",
    "check-structure",
    "build-semidirect",
    "curvature",
    "classify",
    "rank-one",
    "groupoid-verify",
    "lie-functor",
    "example",
)

def _tolerance(text: str) -> float:
    v = float(text)
    if not math.isfinite(v) or v <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0: {text!r}")
    return v


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args
    call fills a new namespace."""
    p = argparse.ArgumentParser(
        prog="algebroids",
        description="Verification checks for algebroid connection data.",
    )
    sub = p.add_subparsers(dest="command")
    sub.required = True

    def common(sp):
        sp.add_argument("--model", help="model JSON file")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--samples", type=int, default=200)
        sp.add_argument("--tol", type=_tolerance, default=None)
        sp.add_argument("--json", action="store_true", dest="as_json")

    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        common(sp)
        if name == "coupling":
            sp.add_argument("--roundtrip", action="store_true")
        if name == "check-structure":
            sp.add_argument("--kernel-flat", action="store_true", dest="kernel_flat")
        if name == "rank-one":
            sp.add_argument("--witness", default=None, metavar="KIND")
        if name == "example":
            sp.add_argument("name", help="example family name")
    return p


def _emit(report: Report, as_json: bool, started: float) -> int:
    if as_json:
        sys.stdout.write(report.to_json())
    else:
        print(report.table())
        print(f"wall time: {time.monotonic() - started:.2f}s")
    return 0 if report.passed else 1


def _require_model(args):
    if not args.model:
        raise ModelError("this subcommand needs --model <path>")
    return load_model(args.model)


def _two_form_coupling(model):
    """The model's coupling, for a subcommand that builds its 2-forms:
    a chart of dimension 1 has none, and is refused."""
    cd = model.coupling()
    n = cd.base.chart.dim
    if n < 2:
        raise ModelError(f"2-forms need a chart of dimension at least 2, not dimension {n}")
    return cd


def _cmd_verify_algebroid(args, plan, tol):
    model = _require_model(args)
    A = model.algebroid()
    rep = check_axioms(A, None, plan, tol=tol or 1e-8)
    rep.command = "verify-algebroid"
    return rep


def _cmd_verify_ideal(args, plan, tol):
    model = _require_model(args)
    A = model.algebroid()
    ideal = model.ideal()
    rep = check_axioms(A, ideal, plan, tol=tol or 1e-8)
    rep.command = "verify-ideal"
    # The canonical representation drives the downstream checkers; its
    # flatness is part of the ideal being well-formed.
    if rep.passed:
        arep = canonical_representation(A, ideal)
        rep.add("canonical_representation_flat",
                arep.flatness_residual(plan.fork("rep")), tol or 1e-8)
    return rep


def _cmd_verify_im(args, plan, tol):
    model = _require_model(args)
    A = model.algebroid()
    ideal = model.ideal()
    form = model.im_form()
    arep = canonical_representation(A, ideal)
    rep = check_im_form(form, arep, plan, tol=tol or 1e-8)
    rep.command = "verify-im"
    return rep


def _cmd_coupling(args, plan, tol):
    model = _require_model(args)
    cd = model.coupling()
    tol = tol or 1e-10
    rep = Report(command="coupling", seed=plan.seed, samples=plan.samples)
    rep.add("U_anchor_skew", cd.skew_residual(plan.fork("skew")), 1e-9)
    if args.roundtrip:
        form = coupling_to_im(cd, plan=plan.fork("c2i"), check=False)
        cd2 = extract_coupling(
            form.algebroid, form.ideal, form, plan.fork("ext"), check=False
        )
        B = cd.base
        with np.errstate(invalid="ignore", over="ignore"):
            pts = plan.points(B.chart, 30)
            # Gamma, U and the base bracket of each coupling at the points.
            (G, U, cB), (G2, U2, cB2) = (
                _stack(pts, c.gamma_map.value, c.u_map.value, c.base.structure_map.value)
                for c in (cd, cd2)
            )
            rep.add("roundtrip_fiber_connection", G - G2, tol)
            rep.add("roundtrip_mixed_tensor", U - U2, tol)
            rep.add("roundtrip_base_structure", cB - cB2, tol)
            # Reverse direction: the rebuilt form agrees with the form the
            # second coupling generates.
            form2 = coupling_to_im(cd2, plan=plan.fork("c2i2"), check=False)
            pts = plan.points(B.chart, 15)
            (F,), (F2,) = (_stack(pts, f.op_map.value) for f in (form, form2))
            rep.add("roundtrip_connection_form", F - F2, tol)
    return rep


def _cmd_check_structure(args, plan, tol):
    model = _require_model(args)
    cd = _two_form_coupling(model) if args.kernel_flat else model.coupling()
    variant = "S1'S3'" if args.kernel_flat else "S1S3"
    rep = check_structure_equations(cd, variant=variant, plan=plan, tol=tol or 1e-8)
    return rep


def _cmd_build_semidirect(args, plan, tol):
    model = _require_model(args)
    cd = model.coupling()
    A = build_semidirect(cd)
    ideal = IdealBundle(A, cd.k, verify=False)
    rep = check_axioms(A, ideal, plan, tol=tol or 1e-8)
    rep.command = "build-semidirect"
    rep.extra["rank"] = A.rank
    return rep


def _cmd_curvature(args, plan, tol):
    model = _require_model(args)
    cd = _two_form_coupling(model)
    tol = tol or 1e-8
    curv = curvature_im(cd, plan.fork("curv"), check=False)
    arep = canonical_representation(curv.algebroid, curv.ideal)
    rep = check_im_form(curv, arep, plan, tol=tol)
    rep.command = "curvature"
    O, S = _stack(plan.points(cd.base.chart, 25), curv.op_map.value, curv.sym_map.value)
    worst = sup(O, S)
    rep.extra["curvature_max_value"] = worst
    rep.extra["curvature_vanishes"] = bool(worst < 1e-9)
    return rep


def _cmd_classify(args, plan, tol):
    model = _require_model(args)
    cd = model.coupling()
    classes, inner = classify_flatness(cd, plan, tol=tol or 1e-9)
    rep = Report(command="classify", seed=plan.seed, samples=plan.samples)
    rep.extra["flatness"] = [c for c in FLATNESS_ORDER if c in classes]
    rep.extra["residuals"] = {
        c.name: c.max_residual for c in inner.checks
    }
    # A residual the classification could not measure fails the report;
    # a finite one only decides a class.
    rep.checks = [c for c in inner.checks if not math.isfinite(c.max_residual)]
    return rep


def _cmd_rank_one(args, plan, tol):
    model = _require_model(args)
    cd = model.coupling()
    try:
        data = extract_rank_one(cd)
    except ValueError as e:
        raise ModelError(str(e)) from e
    tol = tol or 1e-8
    if args.witness:
        # A copy: the model's witness is shared with its other readers.
        witness = dict(model.witness()) if model.has("rank_one_witness") else {"kind": args.witness}
        # A model's witness names its own kind, whatever --witness says.
        kind = witness.pop("kind")
        try:
            rep = verify_witness(kind, data, witness, plan, tol=tol)
        except ValueError as e:
            raise ModelError(str(e)) from e
    else:
        rep = check_rank_one(data, plan, tol=tol)
    return rep


def _cmd_groupoid_verify(args, plan, tol):
    model = _require_model(args)
    gpd = model.groupoid()
    rep = gpd.verify(plan.fork("structure"))
    rep.command = "groupoid-verify"
    alpha = connection_from_splitting(gpd, plan=plan.fork("conn"))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    props = check_groupoid_properties(
        gpd, alpha, Om, conn, plan.fork("props"), tol=tol or 1e-4
    )
    rep.merge(props)
    return rep


def _cmd_lie_functor(args, plan, tol):
    model = _require_model(args)
    gpd = model.groupoid()
    tol = tol or 1e-6
    alpha = connection_from_splitting(gpd, plan=plan.fork("conn"))
    nform = differentiate_to_im(gpd, alpha)
    A, ideal, P = gpd.action_algebroid()
    arep = canonical_representation(A, ideal)
    rep = check_im_form(nform, arep, plan.fork("im"), tol=tol)
    rep.command = "lie-functor"
    ncd = numeric_extract_coupling(gpd, nform)
    rep.merge(
        check_structure_equations(ncd, plan=plan.fork("se"), tol=tol),
        prefix="coupling_",
    )
    return rep


def _cmd_example(args, plan, tol):
    params = {}
    if args.model:
        model = load_model(args.model)
        if model.has("example"):
            spec = model.example_spec()
            if spec.name != args.name:
                raise ModelError(
                    f"model example section is for {spec.name!r}, not {args.name!r}"
                )
            params = dict(spec.params)
    try:
        spec = ExampleSpec(args.name, params)
    except ValueError as e:
        raise ModelError(str(e)) from e
    rep = run_example_suite(spec, plan, tol=tol or 1e-8)
    return rep


def run_example_suite(spec: ExampleSpec, plan: SamplePlan, tol: float) -> Report:
    """Family-appropriate checker suite over a factory output."""
    try:
        model = make_example(spec, plan.fork("build"))
    except (ValueError, ParseError) as e:
        raise ModelError(f"example {spec.name!r}: {e}") from e
    rep = Report(command=f"example:{spec.name}", seed=plan.seed, samples=plan.samples)
    ax = check_axioms(model.algebroid, model.ideal, plan.fork("axioms"), tol=tol)
    rep.merge(ax, prefix="axioms_")
    arep = canonical_representation(model.algebroid, model.ideal)

    if spec.name == "action":
        form = cartan_build_connection(
            model.algebroid, model.ideal, model.splitting, model.connection,
            plan.fork("cartan"), tol=tol,
        )
        rep.merge(check_im_form(form, arep, plan.fork("im"), tol=tol), prefix="im_")
        cd = extract_coupling(model.algebroid, model.ideal, form, plan.fork("ext"), check=False)
        rep.merge(check_structure_equations(cd, plan=plan.fork("se"), tol=tol), prefix="coupling_")
        return rep

    if spec.name == "transitive":
        form = transitive_im_connection(model.algebroid, model.tau, plan.fork("tau"))
        rep.merge(check_im_form(form, arep, plan.fork("im"), tol=tol), prefix="im_")
        cd = extract_coupling(model.algebroid, model.ideal, form, plan.fork("ext"), check=False)
        rep.merge(check_structure_equations(cd, plan=plan.fork("se"), tol=tol), prefix="coupling_")
        return rep

    cd = model.coupling
    if model.im_form is not None:
        rep.merge(
            check_im_form(model.im_form, arep, plan.fork("im"), tol=tol), prefix="im_"
        )
    variant = "S1'S3'" if spec.name == "principal_type_flat" else "S1S3"
    try:
        rep.merge(
            check_structure_equations(cd, variant=variant, plan=plan.fork("se"), tol=tol),
            prefix="structure_",
        )
    except CenterDegeneracyError as e:
        rep.add("center_constant_rank", 1.0, 0.5)
        rep.extra["center_degeneracy"] = str(e)
    classes, _ = classify_flatness(cd, plan.fork("cl"))
    rep.extra["flatness"] = [c for c in FLATNESS_ORDER if c in classes]

    if spec.name == "principal_type_flat":
        # Kernel-flat extras: the degree-2 pair maps onto the base
        # cocycle through the cochain contraction.
        pair = kernel_flat_two_form(cd)
        ev = chain_map(pair)
        defects = []
        B = cd.base
        rng = plan.fork("chain").rng
        for _ in range(4):
            al = B.random_section(rng)
            be = B.random_section(rng)
            got, a, b, rho, U = _stack(
                plan.points(B.chart, 8),
                PointMap.exact(ev(al, be)).value,
                PointMap.exact(al.components).value,
                PointMap.exact(be.components).value,
                B.anchor_map.value,
                cd.u_map.value,
            )
            # The base cocycle U(alpha, rho(beta)).
            defects.append(got - np.einsum("pa,pb,pabe->pe", a, b, _anchored(rho, U)))
        rep.add("chain_map_matches_base_cocycle", np.array(defects), 1e-9)
    return rep


_DISPATCH = {
    "verify-algebroid": _cmd_verify_algebroid,
    "verify-ideal": _cmd_verify_ideal,
    "verify-im": _cmd_verify_im,
    "coupling": _cmd_coupling,
    "check-structure": _cmd_check_structure,
    "build-semidirect": _cmd_build_semidirect,
    "curvature": _cmd_curvature,
    "classify": _cmd_classify,
    "rank-one": _cmd_rank_one,
    "groupoid-verify": _cmd_groupoid_verify,
    "lie-functor": _cmd_lie_functor,
    "example": _cmd_example,
}


def run(argv=None) -> int:
    started = time.monotonic()
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors (incl. unknown subcommands).
        return int(e.code) if e.code else 0
    plan = SamplePlan(seed=args.seed, samples=args.samples)
    try:
        rep = _DISPATCH[args.command](args, plan, args.tol)
    except (ModelError, SamplingError, FlowRegionError) as e:
        print(f"model error: {e}", file=sys.stderr)
        return 3
    except (ConstructionRefused, EquivarianceError) as e:
        rep = e.report
        rep.extra["refused"] = str(e)
        code = _emit(rep, args.as_json, started)
        return 1 if code == 0 else code
    except CenterDegeneracyError as e:
        print(f"degeneracy: {e}", file=sys.stderr)
        return 1
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return 3
    rep.seed = plan.seed
    rep.samples = plan.samples
    return _emit(rep, args.as_json, started)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
