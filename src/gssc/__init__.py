"""Signal processing on simplicial complexes with general coefficients.

The package splits into a small algebraic core (complexes, coefficient
systems, exact homology), a spectral layer (Laplacians, Hodge splittings,
eigenbases), learning models over those splittings, and per-edge baseline
methods plus a reproducible experiment harness for comparing them.  Each
public name is stated once, in `_NAMES`, under the module that defines it;
`gssc.X` imports that module on first use, so `import gssc` loads none.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "baselines": "GridEstimate KrrConfig krr_fit_eval krr_grid rbf_kernel sc_product",
    "coefficients": "ChainVector CoefficientSystem FourierFn Integer ModN Real add apply_boundary "
                    "apply_coboundary eval_fn load_chain negate norm_p random_chain "
                    "resolve_weights save_chain scale zero_chain",
    "complexes": "ChainComplexRep SimplicialComplex ValidationReport canonical_complex "
                 "default_experiment_complex load_complex load_delta random_complex "
                 "resolve_complex save_complex save_delta to_chain_complex validate",
    "errors": "FormatError InfeasibleError NumericalError UnsupportedError",
    "experiment": "ExperimentConfig parse_config run_experiment",
    "gf2": "",
    "hodge": "DecompositionResult HodgeBases Spectrum courant_fischer_check eig_sym "
             "hodge_decompose laplacian numerical_rank spectral_bases",
    "homology": "HomologySummary SNFResult homology_Z homology_field integer_rank mod_p_rank "
                "smith_normal_form",
    "learn": "ConditioningWarning SampleSet SynthSpec eval_chain_on_grid evaluation_grid "
             "load_samples reconstruct_gssc rmse_ratio sample_async save_samples "
             "simplicial_seminorm solve_fundamental solve_smooth synthesize",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # never stored here, so a function rebound in its module is what gssc.X returns
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
