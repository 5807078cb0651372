"""Command-line surface.

Exit codes: 0 success/pass, 1 verification failure (or infeasible matching),
2 usage errors, I/O failures, and malformed inputs.

Each command imports the library modules it calls when it runs, so a process
loads only what its command needs.
"""

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    EXIT_FAIL,
    EXIT_MALFORMED,
    EXIT_PASS,
    MalformedCertificateError,
    ResourceCapError,
    SoficlabError,
    load_json,
)

FAMILIES = ("z", "z2", "heisenberg", "free", "finite")


def _backend_for(args):
    from .backends import finite_backend_from_json, free_backend, heisenberg_backend, zpower_backend

    family = args.family
    if family == "z":
        return zpower_backend(1)
    if family == "z2":
        return zpower_backend(2)
    if family == "heisenberg":
        return heisenberg_backend()
    if family == "free":
        return free_backend(args.rank)
    if family == "finite":
        if not getattr(args, "table", None):
            raise SoficlabError("--table required for the finite family")
        return load_json(args.table, finite_backend_from_json)
    raise SoficlabError(f"unknown family {family!r}")


def _emit(doc, path=None) -> None:
    text = json.dumps(doc, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_ball(args) -> int:
    from .balls import ball

    backend = _backend_for(args)
    table = ball(backend, args.radius)
    by_length = dict(enumerate(np.bincount(table.lengths).tolist()))
    _emit(
        {
            "backend": backend.kind,
            "radius": args.radius,
            "elements": len(table),
            "by_length": by_length,
            "products_defined": sum(map(len, table.product_blocks())),
        },
        args.output,
    )
    return EXIT_PASS


def cmd_certify(args) -> int:
    from .almosthom import measured_certificate, save_certificate
    from .balls import ball
    from .constructions import folner_certificate, free_sofic_certificate, lef_to_sofic

    if args.family == "free":
        if args.rank != 2:
            raise SoficlabError(f"--family free certifies rank 2 only, not --rank {args.rank}")
        cert = free_sofic_certificate(args.radius)
    elif args.family == "finite":
        backend = _backend_for(args)
        domain = ball(backend, args.radius)
        identity_mono = {i: g for i, g in enumerate(domain.elements)}
        hom = lef_to_sofic(domain, backend, identity_mono)
        cert = measured_certificate(hom, provenance=f"finite regular rep, radius={args.radius}")
    else:
        if args.folner is None:
            raise SoficlabError("--folner L required for amenable families")
        from .amenability import folner_box

        backend = _backend_for(args)
        domain = ball(backend, args.radius)
        cert = folner_certificate(domain, folner_box(backend, args.folner))
    save_certificate(cert, args.output)
    print(
        f"certificate: defect={cert.claimed_defect:g} "
        f"separation={cert.claimed_separation:g} target_n={cert.hom.target_n}",
        file=sys.stderr,
    )
    return EXIT_PASS


def cmd_verify(args) -> int:
    from .almosthom import check_thresholds, load_certificate, verify

    check_thresholds(args.eps, args.delta)  # before reading a certificate of any size
    cert = load_certificate(args.certificate)
    report = verify(cert, args.eps, args.delta)
    _emit(report.to_json(), args.output)
    return report.exit_code


def cmd_amplify(args) -> int:
    from .almosthom import load_certificate, save_certificate
    from .constructions import amplify_certificate

    cert = load_certificate(args.certificate)
    out = amplify_certificate(cert, args.times)
    save_certificate(out, args.output)
    print(
        f"amplified x{args.times}: rank {cert.hom.target_n} -> {out.hom.target_n}, "
        f"separation {out.claimed_separation:g}",
        file=sys.stderr,
    )
    return EXIT_PASS


def cmd_to_unitary(args) -> int:
    from .almosthom import load_certificate, save_certificate
    from .constructions import hyperlinear_certificate

    cert = load_certificate(args.certificate)
    save_certificate(hyperlinear_certificate(cert), args.output)
    return EXIT_PASS


def cmd_graph(args) -> int:
    from .almosthom import load_certificate
    from .graphs import cert_to_graph

    cert = load_certificate(args.certificate)
    graph = cert_to_graph(cert.hom)
    text = graph.to_dot() if args.output.endswith(".dot") else graph.json_text() + "\n"
    with open(args.output, "w") as fh:
        fh.write(text)
    return EXIT_PASS


def cmd_match_fraction(args) -> int:
    from .balls import ball
    from .graphs import ColoredGraph, local_match_fraction

    graph = load_json(args.graph, ColoredGraph.from_json)
    backend = _backend_for(args)
    reference = ball(backend, args.radius)
    report = local_match_fraction(graph, args.radius, reference)
    _emit(
        {
            "radius": args.radius,
            "matched": report.matched_count,
            "total": report.total_count,
            "fraction": float(report.fraction),
            "sample_failures": [list(f) for f in report.sample_failures],
        },
        args.output,
    )
    return EXIT_PASS


def cmd_folner(args) -> int:
    from .amenability import folner_box, generator_folner_defect

    backend = _backend_for(args)
    phi = folner_box(backend, args.side)
    # reiter_norm(phi, g) = folner_defect(phi, [g]): the max over g is this
    defect = float(generator_folner_defect(phi))
    _emit(
        {
            "backend": backend.kind,
            "side": args.side,
            "size": len(phi),
            "generator_defect": defect,
            "reiter_norm_max": defect,
        },
        args.output,
    )
    return EXIT_PASS


def cmd_hall(args) -> int:
    from .matching import BipartiteGraph, DeficiencyWitness, two_one_matching

    graph = load_json(args.graph, BipartiteGraph.from_json)
    outcome = two_one_matching(graph)
    if isinstance(outcome, DeficiencyWitness):
        _emit(
            {
                "feasible": False,
                "witness": list(outcome.left_subset),
                "neighbourhood_size": outcome.neighbourhood_size,
            },
            args.output,
        )
        return EXIT_FAIL
    _emit({"feasible": True, "i": list(outcome.i), "j": list(outcome.j)}, args.output)
    return EXIT_PASS


def cmd_paradox(args) -> int:
    if args.spread is not None:
        from .matching import paradox_from_matching

        report = paradox_from_matching(args.radius, args.spread)
        _emit(
            {
                "radius": report.radius,
                "spread": report.spread,
                "feasible": report.feasible,
                "pieces": {f"{s}|{t}": c for (s, t), c in report.pieces.items()},
                "translated_disjoint": report.translated_disjoint,
                "leakage": report.leakage,
                "witness": list(report.witness.left_subset) if report.witness else None,
            },
            args.output,
        )
        return EXIT_PASS if report.feasible else EXIT_FAIL
    from .amenability import paradox_verify

    report = paradox_verify(args.radius)
    _emit(
        {
            "radius": report.radius,
            "piece_sizes": report.piece_sizes,
            "a_identity_holds": report.a_identity_holds,
            "b_identity_holds": report.b_identity_holds,
            "partition_ok": report.partition_ok,
        },
        args.output,
    )
    return EXIT_PASS if report.all_ok else EXIT_FAIL


def cmd_demo(args) -> int:
    if args.what == "sinfty":
        from .config import default_limits
        from .metrics import sinfty_demo

        ball_cap = default_limits().ball_cap
        if args.k > ball_cap:  # before 2^k is built: the points 1, ..., k + 1 are moved
            raise ResourceCapError(f"k = {args.k} exceeds the point cap {ball_cap}")
        dx, dconj = sinfty_demo(args.k)
        print(f"{float(dx)}")
        print(f"{float(dconj)}")
        return EXIT_PASS
    if args.what == "amplify":
        from .amplify import amplification_report
        from .config import default_limits
        from .metrics import random_unitaries

        limits = default_limits()
        if args.rank < 1:
            raise ValueError("rank of at least 1 required")
        if args.rank**2 > limits.rank_cap:  # before drawing: the tensor square has rank^4 entries
            raise ResourceCapError(f"amplified rank {args.rank**2} exceeds cap {limits.rank_cap}")
        if args.pairs < 1:
            raise ValueError("at least one pair required")
        drawn = 2 * args.pairs * args.rank**2
        if drawn > limits.ball_cap:  # before drawing: the Gaussian entries of all pairs
            raise ResourceCapError(f"{drawn} drawn entries exceed the ball cap {limits.ball_cap}")
        us = random_unitaries(args.rank, 2 * args.pairs, np.random.default_rng(args.seed))
        _emit(amplification_report(list(zip(us[::2], us[1::2]))).to_json(), args.output)
        return EXIT_PASS
    raise SoficlabError(f"unknown demo {args.what!r}")


def _arg(*flags, **kwargs):
    return flags, kwargs


_FAMILY = (
    _arg("--family", choices=FAMILIES, required=True),
    _arg("--rank", type=int, default=2, help="rank for the free family"),
    _arg("--table", help="finite group table JSON (finite family)"),
)
_RADIUS = _arg("--radius", type=int, required=True)
_CERTIFICATE, _OUTPUT = _arg("certificate"), _arg("-o", "--output")
_WRITES = _arg("-o", "--output", required=True)

# Each subcommand once, in the order of the help text: its help and its
# arguments.  The subcommand `name` runs cmd_<name>, with "-" read as "_".
COMMANDS = {
    "ball": ("enumerate a word-metric ball and print stats", (*_FAMILY, _RADIUS, _OUTPUT)),
    "certify": ("construct a sofic certificate", (
        *_FAMILY, _RADIUS, _arg("--folner", type=int, help="Folner box side for amenable families"),
        _WRITES)),
    "verify": ("verify a certificate against eps/delta", (
        _CERTIFICATE, _arg("--eps", type=float, required=True),
        _arg("--delta", type=float, required=True), _OUTPUT)),
    "amplify": ("tensor-square amplify a unitary certificate", (
        _CERTIFICATE, _arg("--times", type=int, required=True), _WRITES)),
    "to-unitary": ("convert a sym certificate to a unitary one", (_CERTIFICATE, _WRITES)),
    "graph": ("export a certificate as a coloured graph", (
        _CERTIFICATE, _arg("-o", "--output", required=True, help=".json or .dot"))),
    "match-fraction": ("locally-correct vertex fraction of a graph", (
        _arg("graph"), *_FAMILY, _RADIUS, _OUTPUT)),
    "folner": ("Folner box defect and Reiter norm", (
        *_FAMILY, _arg("-L", "--side", type=int, required=True), _OUTPUT)),
    "hall": ("(2,1)-matching of a bipartite graph JSON", (_arg("graph"), _OUTPUT)),
    "paradox": ("paradoxical decomposition checks", (
        _RADIUS, _arg("--spread", type=int,
                      help="run the matching-based construction with B_{N+k}"), _OUTPUT)),
    "demo": ("built-in demonstrations", (
        _arg("what", choices=("sinfty", "amplify")), _arg("--k", type=int, default=3),
        _arg("--rank", type=int, default=2), _arg("--pairs", type=int, default=10),
        _arg("--seed", type=int, default=0), _OUTPUT)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of the subcommand named `command` alone, or of all of them
    when `command` names none (help, version, a typo, no word)."""
    parser = argparse.ArgumentParser(
        prog="soficlab", description="Finite metric approximations of countable groups")
    parser.add_argument("--version", action="version", version=__version__)
    names = (command,) if command in COMMANDS else COMMANDS
    # one subparser: the usage line of a top-level error still lists every name
    metavar = None if names is COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        # looked up now, not at import, so that a rebound cmd_* is the one run
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    if argv is None:  # run as the program
        gc.freeze()  # what start-up left: no collection, those at exit too, rescans it
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at exit
        return code
    except MalformedCertificateError as exc:
        print(f"malformed: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # drop the unwritten output
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (SoficlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
