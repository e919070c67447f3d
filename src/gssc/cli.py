"""Command-line front end.

Subcommands: homology, decompose, spectra, synth, sample, reconstruct,
experiment, complex gen.  Global flags --seed, --jobs, --out apply where
they make sense (seeding for synth/sample, parallelism for experiment,
output paths everywhere).  Commands import the scipy-based modules
themselves, so `homology` and `complex gen` never load scipy.

Exit codes: 0 success, 2 bad input -- files, parse problems, rejected
values, argparse usage errors -- 3 unsupported requests, among them any
whose arrays do not fit in memory, 4 numerical failures.  Past argument
parsing, a failure prints one `gssc: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .coefficients import (FourierFn, Integer, ModN, Real, load_chain,
                           save_chain)
from .complexes import (SimplicialComplex, _write_csv, resolve_complex,
                        save_complex, save_delta, validate)
from .errors import (FormatError, InfeasibleError, NumericalError,
                     UnsupportedError)
from .homology import homology_Z


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gssc",
        description="Signal processing on simplicial complexes: homology, "
                    "Hodge decompositions, and sampled reconstruction.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for randomized subcommands")
    parser.add_argument("--jobs", type=int, default=1,
                        help="experiment sweep cells run at once in parallel "
                             "threads (>= 1); each cell uses one BLAS thread")
    parser.add_argument("--out", default=None,
                        help="output file or directory, subcommand-dependent")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="integer homology of a complex",
                       parents=[common])
    p.add_argument("complex", help="path (.scx/.dcx), canonical name, "
                                   "random(...), or 'default'")
    p.add_argument("-k", type=int, default=None, help="single degree")
    p.add_argument("--all", action="store_true",
                   help="all degrees (default when -k is absent)")

    p = sub.add_parser("decompose", help="decompose a chain signal", parents=[common])
    p.add_argument("complex")
    p.add_argument("signal", help="chain CSV file")
    p.add_argument("-k", type=int, required=True, help="chain degree")
    p.add_argument("--model", choices=("fundamental", "smooth"),
                   default="fundamental")
    p.add_argument("--system", choices=("real", "integer", "mod2", "fourier"),
                   default="real")
    p.add_argument("-p", type=int, choices=(1, 2), default=2)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--time-order", type=int, default=3,
                   help="Fourier order for --system fourier")

    p = sub.add_parser("spectra", help="Laplacian spectrum of a complex", parents=[common])
    p.add_argument("complex")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--vectors", default=None,
                   help="also write the eigenvector matrix to this CSV")

    p = sub.add_parser("synth", help="draw a random function-valued edge signal", parents=[common])
    p.add_argument("complex")
    p.add_argument("--n-irr", type=int, default=20)
    p.add_argument("--n-sol", type=int, default=20)
    p.add_argument("--time-order", type=int, default=3)

    p = sub.add_parser("sample", help="sample a function-valued signal", parents=[common])
    p.add_argument("complex")
    p.add_argument("signal", help="function-valued chain CSV")
    p.add_argument("-M", "--samples", type=int, required=True,
                   help="samples per edge")
    p.add_argument("--sigma", type=float, default=0.0, help="noise std")
    p.add_argument("--time-order", type=int, default=3)

    p = sub.add_parser("reconstruct", help="fit a signal to sample data", parents=[common])
    p.add_argument("complex")
    p.add_argument("samples", help="sample CSV from the sample subcommand")
    p.add_argument("--time-order", type=int, default=3)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--n-irr", type=int, default=20)
    p.add_argument("--n-sol", type=int, default=20)
    p.add_argument("--sub-size", type=int, default=0,
                   help="truncate both non-harmonic bases to this size (0 = full)")

    p = sub.add_parser("experiment", help="run a method-comparison sweep", parents=[common])
    p.add_argument("config", help="key = value config file")

    p = sub.add_parser("complex", help="complex utilities", parents=[common])
    csub = p.add_subparsers(dest="complex_command", required=True)
    g = csub.add_parser("gen", help="generate and save a complex",
                        parents=[common])
    g.add_argument("spec", help="path (.scx/.dcx), canonical name, random(...), or 'default'")

    return parser


def _require_out(args, what):
    if not args.out:
        raise FormatError(f"--out is required: where should the {what} go?")
    return args.out


def _system_for(args):
    if args.system == "fourier":
        return FourierFn(args.time_order)
    return {"real": Real(), "integer": Integer(), "mod2": ModN(2)}[args.system]


def _cmd_homology(args):
    rep = resolve_complex(args.complex)
    if args.k is not None and not args.all:
        print(f"H_{args.k} = {homology_Z(rep, args.k)}")
    else:
        parts = [f"H_{k} = {homology_Z(rep, k)}" for k in range(rep.dim + 1)]
        print(", ".join(parts))
    return 0


def _print_summary(result):
    print(json.dumps({"model": result.model, "objective": result.objective,
                      "residuals": result.residuals}, sort_keys=True))


def _cmd_decompose(args):
    from .learn import solve_fundamental, solve_smooth
    rep = resolve_complex(args.complex)
    system = _system_for(args)
    x = load_chain(args.signal, rep, args.k, system)
    if args.model == "fundamental":
        result = solve_fundamental(x, p=args.p, weights=None)
    else:
        if args.p != 2:
            raise UnsupportedError("the smooth model supports p = 2 only")
        result = solve_smooth(x, eta=args.eta)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, part in zip(("x0", "x1", "x_neg1"), result.parts()):
        save_chain(part, os.path.join(out_dir, f"{name}.csv"))
    _print_summary(result)
    return 0


def _cmd_spectra(args):
    from .hodge import eig_sym, laplacian
    rep = resolve_complex(args.complex)
    spec = eig_sym(laplacian(rep, args.k))
    # the vectors go first, so a failed write prints no spectrum
    if args.vectors:
        np.savetxt(args.vectors, spec.eigenvectors, delimiter=",")
    try:
        _write_csv(args.out or None, ["index", "eigenvalue"],
                   ([i, repr(float(lam))] for i, lam in enumerate(spec.eigenvalues)))
    except OSError:
        if args.vectors:
            os.remove(args.vectors)
        raise
    return 0


def _cmd_synth(args):
    from .learn import SynthSpec, synthesize
    rep = resolve_complex(args.complex)
    out = _require_out(args, "signal CSV")
    spec = SynthSpec(n_irr=args.n_irr, n_sol=args.n_sol,
                     time_order=args.time_order, seed=args.seed)
    f = synthesize(rep, spec)
    save_chain(f, out)
    print(f"wrote {out}: {len(f.values)} edges, order {args.time_order}")
    return 0


def _cmd_sample(args):
    from .learn import sample_async, save_samples
    rep = resolve_complex(args.complex)
    out = _require_out(args, "sample CSV")
    f = load_chain(args.signal, rep, 1, FourierFn(args.time_order))
    samples = sample_async(f, args.samples, args.sigma, seed=args.seed)
    save_samples(samples, out)
    print(f"wrote {out}: {samples.n_edges} edges x "
          f"{samples.samples_per_edge} samples, sigma={args.sigma:g}")
    return 0


def _cmd_reconstruct(args):
    from .hodge import spectral_bases
    from .learn import load_samples, reconstruct_gssc
    if args.sub_size < 0:
        raise FormatError(f"sub-size must be >= 0, got {args.sub_size}")
    rep = resolve_complex(args.complex)
    out = _require_out(args, "estimate CSV")
    bases = spectral_bases(rep, 1, args.n_irr, args.n_sol)  # refuses a complex with no edges
    if args.sub_size > 0:
        bases = bases.sub(args.sub_size, args.sub_size)
    samples = load_samples(args.samples, rep.n_cells(1))
    estimate, result = reconstruct_gssc(samples, rep, bases,
                                        time_order=args.time_order,
                                        eta=args.eta)
    save_chain(estimate, out)
    _print_summary(result)
    return 0


def _cmd_experiment(args):
    from .experiment import parse_config, run_experiment
    config = parse_config(args.config)
    run_experiment(config, out_dir=args.out or "results", jobs=args.jobs, log=print)
    return 0


def _cmd_complex_gen(args):
    rep = resolve_complex(args.spec)
    if args.out is None:
        report = validate(rep)
        dims = " ".join(str(rep.n_cells(k)) for k in range(rep.dim + 1))
        print(f"dims {dims} ({'valid' if report.ok else 'INVALID'})")
        return 0
    if args.out.endswith(".scx"):
        # simplicial complexes label their cells with vertex tuples, by level
        if not rep.labels or not all(isinstance(c, tuple) for lv in rep.labels for c in lv):
            raise UnsupportedError(
                f"{args.spec!r} is not a simplicial complex; save it as .dcx")
        save_complex(SimplicialComplex._unchecked(rep.n_cells(0), rep.labels), args.out)
    elif args.out.endswith(".dcx"):
        save_delta(rep, args.out)
    else:
        raise FormatError(f"unknown output extension for {args.out!r}; "
                          "use .scx or .dcx")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "homology": _cmd_homology,
    "decompose": _cmd_decompose,
    "spectra": _cmd_spectra,
    "synth": _cmd_synth,
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "experiment": _cmd_experiment,
    "complex": _cmd_complex_gen,
}


def _fail(kind, exc, code):
    message = " ".join(str(exc).split())
    print(f"gssc: {kind}: {message}", file=sys.stderr)
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnsupportedError as exc:
        return _fail("unsupported", exc, 3)
    except MemoryError as exc:  # numpy names the refused allocation
        return _fail("unsupported", str(exc) or "out of memory", 3)
    except (InfeasibleError, NumericalError, np.linalg.LinAlgError) as exc:
        return _fail("numerical failure", exc, 4)
    except (ValueError, OSError) as exc:
        # FormatError and every other rejected value or unreadable file
        return _fail("error", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
