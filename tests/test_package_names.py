"""The package resolves its public names on first use.

`gssc.X` imports the module that defines X only when X is asked for, so the
exact commands (`homology`, `complex gen`) never load scipy or the float
layer.  What a process has loaded is read from a fresh interpreter.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import gssc

SRC = pathlib.Path(gssc.__file__).resolve().parents[1]

PUBLIC = """
ChainComplexRep ChainVector CoefficientSystem ConditioningWarning DecompositionResult
ExperimentConfig FormatError FourierFn GridEstimate HodgeBases HomologySummary
InfeasibleError Integer KrrConfig ModN NumericalError Real SNFResult SampleSet
SimplicialComplex Spectrum SynthSpec UnsupportedError ValidationReport add
apply_boundary apply_coboundary canonical_complex courant_fischer_check
default_experiment_complex eig_sym eval_chain_on_grid eval_fn evaluation_grid
hodge_decompose homology_Z homology_field integer_rank krr_fit_eval krr_grid
laplacian load_chain load_complex load_delta load_samples mod_p_rank negate norm_p
numerical_rank parse_config random_chain random_complex rbf_kernel reconstruct_gssc
resolve_complex resolve_weights rmse_ratio run_experiment sample_async save_chain
save_complex save_delta save_samples sc_product scale simplicial_seminorm
smith_normal_form solve_fundamental solve_smooth spectral_bases synthesize
to_chain_complex validate zero_chain
""".split()

FLOAT_LAYER = ("gssc.hodge", "gssc.learn", "gssc.baselines", "gssc.experiment",
               "gssc._blas")


def fresh(code, cwd):
    """Runs `code` in a new interpreter in `cwd`; the gssc and scipy modules it
    then holds, and what it printed before."""
    code += ("\nimport sys\nprint(' '.join(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('gssc', 'scipy'))))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return set(modules.split()), printed


@pytest.mark.parametrize("argvs", [
    [["homology", "rp2"]],
    [["complex", "gen", "rp2"]],
    [["complex", "gen", "rp2", "--out", "c.dcx"], ["homology", "c.dcx"]],
    [["complex", "gen", "cycle(5)", "--out", "c.scx"], ["homology", "c.scx"]],
], ids=["homology", "complex-gen", "dcx", "scx"])
def test_exact_commands_load_no_scipy_and_no_float_layer(tmp_path, argvs):
    code = "import gssc.cli\n" + "".join(f"assert gssc.cli.main({argv!r}) == 0\n"
                                         for argv in argvs)
    modules, printed = fresh(code, tmp_path)
    assert printed
    assert {m for m in modules if m.split(".")[0] == "scipy"} == set()
    assert modules.isdisjoint(FLOAT_LAYER)
    assert "gssc.homology" in modules


def test_a_bare_import_loads_no_submodule(tmp_path):
    assert fresh("import gssc", tmp_path)[0] == {"gssc"}


def test_a_module_resolves_after_a_bare_import(tmp_path):
    modules, printed = fresh("import gssc\nprint(gssc.hodge.__name__)", tmp_path)
    assert printed == ["gssc.hodge"]
    assert "gssc.hodge" in modules


def test_the_public_names_are_the_same_74_sorted_and_unique():
    assert gssc.__all__ == sorted(set(PUBLIC))
    assert len(gssc.__all__) == 74


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_modules_own(name):
    obj = getattr(gssc, name)
    module = importlib.import_module(obj.__module__)
    assert obj.__module__.startswith("gssc.")
    assert getattr(module, name) is obj


def test_dir_lists_every_public_name():
    assert set(gssc.__all__) <= set(dir(gssc))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gssc.no_such_name


def test_a_star_import_binds_every_name():
    namespace = {}
    exec("from gssc import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(gssc, name) for name in PUBLIC}
