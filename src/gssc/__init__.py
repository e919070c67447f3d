"""Signal processing on simplicial complexes with general coefficients.

The package splits into a small algebraic core (complexes, coefficient
systems, exact homology), a spectral layer (Laplacians, Hodge splittings,
eigenbases), learning models over those splittings, and per-edge baseline
methods plus a reproducible experiment harness for comparing them.
"""

from .baselines import (GridEstimate, KrrConfig, krr_fit_eval, krr_grid,
                        rbf_kernel, sc_product)
from .coefficients import (ChainVector, CoefficientSystem, FourierFn, Integer,
                           ModN, Real, add, apply_boundary, apply_coboundary,
                           eval_fn, load_chain, negate, norm_p, random_chain,
                           resolve_weights, save_chain, scale, zero_chain)
from .complexes import (ChainComplexRep, SimplicialComplex, ValidationReport,
                        canonical_complex, default_experiment_complex,
                        load_complex, load_delta, random_complex,
                        resolve_complex, save_complex, save_delta,
                        to_chain_complex, validate)
from .errors import (FormatError, InfeasibleError, NumericalError,
                     UnsupportedError)
from .experiment import ExperimentConfig, parse_config, run_experiment
from .hodge import (DecompositionResult, HodgeBases, Spectrum,
                    courant_fischer_check, eig_sym, hodge_decompose,
                    laplacian, numerical_rank, spectral_bases)
from .homology import (HomologySummary, SNFResult, homology_Z, homology_field,
                       integer_rank, mod_p_rank, smith_normal_form)
from .learn import (ConditioningWarning, SampleSet, SynthSpec,
                    eval_chain_on_grid, evaluation_grid, load_samples,
                    reconstruct_gssc, rmse_ratio, sample_async, save_samples,
                    simplicial_seminorm, solve_fundamental, solve_smooth,
                    synthesize)

__version__ = "0.1.0"

__all__ = [
    "ChainComplexRep", "ChainVector", "CoefficientSystem",
    "ConditioningWarning", "DecompositionResult", "ExperimentConfig",
    "FormatError", "FourierFn", "GridEstimate", "HodgeBases",
    "HomologySummary", "InfeasibleError", "Integer", "KrrConfig", "ModN",
    "NumericalError", "Real", "SNFResult", "SampleSet", "SimplicialComplex",
    "Spectrum", "SynthSpec", "UnsupportedError", "ValidationReport",
    "add", "apply_boundary", "apply_coboundary", "canonical_complex",
    "courant_fischer_check", "default_experiment_complex", "eig_sym",
    "eval_chain_on_grid", "eval_fn",
    "evaluation_grid", "hodge_decompose", "homology_Z", "homology_field",
    "integer_rank", "krr_fit_eval", "krr_grid", "laplacian", "load_chain",
    "load_complex", "load_delta", "load_samples", "mod_p_rank",
    "negate", "norm_p", "numerical_rank", "parse_config", "random_chain",
    "random_complex", "rbf_kernel", "reconstruct_gssc", "resolve_complex",
    "resolve_weights", "rmse_ratio", "run_experiment", "sample_async",
    "save_chain", "save_complex", "save_delta", "save_samples",
    "sc_product", "scale", "simplicial_seminorm", "smith_normal_form",
    "solve_fundamental", "solve_smooth", "spectral_bases", "synthesize",
    "to_chain_complex", "validate", "zero_chain",
]
