"""End-to-end command line behavior, exit codes, and file outputs."""

import csv
import json
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from gssc import FourierFn, Real, canonical_complex, load_chain, rmse_ratio
from gssc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_all_degrees_on_one_line(capsys):
    code, out, err = run(capsys, "homology", "rp2", "--all")
    assert code == 0
    assert out.strip() == "H_0 = Z, H_1 = Z/2, H_2 = 0"
    assert err == ""


def readme_commands():
    """(command, expected stdout or None) per `gssc` line of README's
    "Command line" example block; a `# ...` line right after a command is
    its output."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [(line, nxt[2:] if nxt.startswith("# ") else None)
            for line, nxt in zip(lines, lines[1:] + [""])
            if line.startswith("gssc ")]


def test_every_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 5
    shutil.copytree(Path(__file__).parents[1] / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for line, want in commands:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        if want is not None:
            assert out.strip() == want, line


def test_homology_single_degree(capsys):
    code, out, _ = run(capsys, "homology", "cycle(3)", "-k", "1")
    assert code == 0
    assert out.strip() == "H_1 = Z"
    code, out, _ = run(capsys, "homology", "torus")
    assert code == 0
    assert out.strip() == "H_0 = Z, H_1 = Z^2, H_2 = Z"


def test_homology_of_the_largest_ladder_rung_on_one_line(capsys):
    code, out, err = run(capsys, "homology", "random(40,0.5,1.0,11)", "--all")
    assert code == 0
    assert out == "H_0 = Z, H_1 = 0, H_2 = Z^1017\n"
    assert err == ""


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "homology", "no_such_file.scx")
    assert code == 2
    assert "gssc: error:" in err


def test_unknown_complex_name_exits_2(capsys):
    code, _, err = run(capsys, "homology", "klein_bottle")
    assert code == 2
    assert "cannot interpret" in err


def test_decompose_real_chain(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1.0\n1,-0.5\n2,2.0\n3,0.25\n")
    out_dir = tmp_path / "parts"
    code, out, _ = run(capsys, "--out", str(out_dir), "decompose", "cycle(4)",
                       str(signal), "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "fundamental"
    assert payload["objective"] == pytest.approx(1.875)
    rep = canonical_complex("cycle(4)")
    x0 = load_chain(out_dir / "x0.csv", rep, 1, Real())
    x1 = load_chain(out_dir / "x1.csv", rep, 1, Real())
    x_neg1 = load_chain(out_dir / "x_neg1.csv", rep, 1, Real())
    total = (np.asarray(x0.values, dtype=float)
             + np.asarray(x1.values, dtype=float)
             + np.asarray(x_neg1.values, dtype=float))
    assert np.allclose(total, [1.0, -0.5, 2.0, 0.25], atol=1e-10)


def test_decompose_accepts_flags_after_the_subcommand(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1.0\n1,-0.5\n2,2.0\n3,0.25\n")
    out_dir = tmp_path / "parts"
    code, out, _ = run(capsys, "decompose", "cycle(4)", str(signal),
                       "-k", "1", "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(1.875)


def test_decompose_smooth_model(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1.0\n1,0.0\n2,0.0\n")
    code, out, _ = run(capsys, "--out", str(tmp_path / "p"), "decompose",
                       "filled_triangle", str(signal), "-k", "1",
                       "--model", "smooth", "--eta", "2.0")
    assert code == 0
    assert json.loads(out)["model"] == "smooth"


def test_decompose_mod2_objective(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1\n1,1\n2,0\n")
    code, out, _ = run(capsys, "--out", str(tmp_path / "p"), "decompose",
                       "rp2", str(signal), "-k", "1", "--system", "mod2",
                       "-p", "1")
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(1.0)


def test_decompose_mod2_infeasible_exits_4(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1\n1,0\n2,0\n")
    code, _, err = run(capsys, "--out", str(tmp_path / "p"), "decompose",
                       "rp2", str(signal), "-k", "1", "--system", "mod2")
    assert code == 4
    assert "gssc: numerical failure:" in err


def test_decompose_integer_exits_3(tmp_path, capsys):
    signal = tmp_path / "x.csv"
    signal.write_text("cell,value\n0,1\n1,-1\n2,1\n")
    code, _, err = run(capsys, "--out", str(tmp_path / "p"), "decompose",
                       "cycle(3)", str(signal), "-k", "1",
                       "--system", "integer")
    assert code == 3
    assert "gssc: unsupported:" in err


def test_spectra_to_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    vecs = tmp_path / "vecs.csv"
    code, _, _ = run(capsys, "--out", str(out), "spectra", "rp2", "-k", "1",
                     "--vectors", str(vecs))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    eigs = [float(r[1]) for r in rows[1:]]
    assert eigs == pytest.approx([2.0, 4.0, 4.0])
    assert np.loadtxt(vecs, delimiter=",").shape == (3, 3)


def test_spectra_defaults_to_stdout(capsys):
    code, out, _ = run(capsys, "spectra", "path(2)", "-k", "0")
    assert code == 0
    assert out.splitlines()[0] == "index,eigenvalue"


def test_synth_sample_reconstruct_pipeline(tmp_path, capsys):
    signal = tmp_path / "f.csv"
    samples = tmp_path / "s.csv"
    estimate = tmp_path / "est.csv"

    code, out, _ = run(capsys, "--seed", "4", "--out", str(signal), "synth",
                       "cycle(6)", "--n-irr", "6", "--n-sol", "6",
                       "--time-order", "2")
    assert code == 0 and "6 edges" in out

    code, out, _ = run(capsys, "--seed", "5", "--out", str(samples), "sample",
                       "cycle(6)", str(signal), "-M", "30", "--sigma", "0.0",
                       "--time-order", "2")
    assert code == 0 and "30 samples" in out

    code, out, _ = run(capsys, "--out", str(estimate), "reconstruct",
                       "cycle(6)", str(samples), "--time-order", "2",
                       "--eta", "1e6", "--n-irr", "6", "--n-sol", "6")
    assert code == 0
    assert json.loads(out)["model"] == "reconstruct"

    rep = canonical_complex("cycle(6)")
    truth = load_chain(signal, rep, 1, FourierFn(2))
    est = load_chain(estimate, rep, 1, FourierFn(2))
    assert rmse_ratio(est, truth) < 1e-6


def test_synth_requires_an_output_path(capsys):
    code, _, err = run(capsys, "synth", "cycle(3)")
    assert code == 2
    assert "--out is required" in err


def test_experiment_subcommand_runs_a_config(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "complex = random(8, 0.6, 0.7, 2)\n"
        "methods = gssc, krr\n"
        "sweep = noise\n"
        "noise_levels = 0.01\n"
        "samples_per_edge = 8\n"
        "trials = 2\n"
        "time_order = 2\n"
        "n_irr = 6\n"
        "n_sol = 6\n"
        "sub_size = 3\n"
        "eta = 5\n")
    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, "--out", str(out_dir), "--jobs", "2",
                       "experiment", str(cfg))
    assert code == 0
    for name in ("results.csv", "aggregate.csv", "timings.csv"):
        assert (out_dir / name).exists()


def test_experiment_unknown_method_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("methods = splines\n")
    code, _, err = run(capsys, "--out", str(tmp_path / "r"), "experiment",
                       str(cfg))
    assert code == 3
    assert "unknown method" in err


def test_complex_gen_round_trips_both_formats(tmp_path, capsys):
    scx = tmp_path / "c.scx"
    code, out, _ = run(capsys, "--out", str(scx), "complex", "gen",
                       "random(7, 0.5, 0.5, 1)")
    assert code == 0 and "wrote" in out
    code, out, _ = run(capsys, "homology", str(scx))
    assert code == 0

    dcx = tmp_path / "c.dcx"
    code, out, _ = run(capsys, "--out", str(dcx), "complex", "gen", "rp2")
    assert code == 0
    code, out, _ = run(capsys, "homology", str(dcx), "--all")
    assert code == 0
    assert out.strip() == "H_0 = Z, H_1 = Z/2, H_2 = 0"


def test_homology_of_a_delta_complex_with_empty_blocks(tmp_path, capsys):
    dcx = tmp_path / "z.dcx"
    dcx.write_text("dims 2 0 1\nB1\nB2\n")
    code, out, err = run(capsys, "homology", str(dcx), "--all")
    assert code == 0 and err == ""
    assert out.strip() == "H_0 = Z^2, H_1 = 0, H_2 = Z"


def test_complex_gen_without_out_prints_dims(capsys):
    code, out, _ = run(capsys, "complex", "gen", "rp2")
    assert code == 0
    assert out.strip() == "dims 2 3 2 (valid)"


def test_complex_gen_refuses_scx_for_delta_complexes(tmp_path, capsys):
    code, _, err = run(capsys, "--out", str(tmp_path / "t.scx"), "complex",
                       "gen", "rp2")
    assert code == 3
    assert ".dcx" in err


def _bad_input_files(tmp_path):
    """A valid 4-edge signal and sample file plus malformed variants."""
    signal = tmp_path / "f.csv"
    signal.write_text("edge,c0,c1,c2,c3,c4,c5,c6\n"
                      + "".join(f"{e},1,0,0,0,0,0,0\n" for e in range(4)))
    samples = tmp_path / "s.csv"
    samples.write_text("edge,t,y\n" + "".join(f"{e},{t},1.0\n" for e in range(4)
                                               for t in (-1.0, 0.5)))
    relabelled = tmp_path / "s_neg.csv"
    relabelled.write_text(samples.read_text().replace("\n3,", "\n-1,"))
    infinite = tmp_path / "s_inf.csv"
    infinite.write_text(samples.read_text().replace("\n0,-1.0,", "\n0,inf,"))
    chain = tmp_path / "x.csv"
    chain.write_text("cell,value\n0,1.0\n1,-0.5\n2,2.0\n3,0.25\n")
    (tmp_path / "x_nan.csv").write_text(chain.read_text().replace("-0.5", "nan"))
    (tmp_path / "x_extra.csv").write_text(chain.read_text().replace("0,1.0", "0,1.0,7"))
    (tmp_path / "s_extra.csv").write_text(
        samples.read_text().replace("\n0,-1.0,1.0", "\n0,-1.0,1.0,junk"))
    (tmp_path / "bad_complex.cfg").write_text("complex = nonsense\ntrials = 1\n")
    (tmp_path / "unknown_key.cfg").write_text("trials = 1\nwavelets = 9\n")
    (tmp_path / "latin1.cfg").write_bytes("trials = 1\n# r\u00e9sum\u00e9\n".encode("latin-1"))
    for name, line in (("order0.cfg", "time_order = 0"),
                       ("nan.cfg", "noise_levels = 0.01, nan"),
                       ("inf.cfg", "sweep = samples\nnoise = inf"),
                       ("alpha_nan.cfg", "alpha = nan"),
                       ("ridge_nan.cfg", "ridge = nan"),
                       ("lengthscale0.cfg", "lengthscale = 0"),
                       ("seed_neg.cfg", "seed = -1"),
                       ("repeated_key.cfg", "trials = 2"),
                       ("repeated_method.cfg", "methods = gssc, gssc"),
                       ("repeated_noise.cfg", "noise_levels = 0.1, 0.10"),
                       ("repeated_count.cfg", "sweep = samples\nsample_counts = 5, 5"),
                       ("ok.cfg", "sample_counts = 5")):
        (tmp_path / name).write_text(f"complex = cycle(4)\ntrials = 1\n{line}\n")
    return tmp_path


BAD_INPUT = [
    ("sample", ["sample", "cycle(4)", "{d}/f.csv", "-M", "0"], "at least one sample"),
    ("sample-sigma", ["sample", "cycle(4)", "{d}/f.csv", "-M", "3", "--sigma", "-1"],
     "sigma"),
    ("sample-sigma-nan", ["sample", "cycle(4)", "{d}/f.csv", "-M", "3", "--sigma", "nan"],
     "sigma"),
    ("sample-sigma-inf", ["sample", "cycle(4)", "{d}/f.csv", "-M", "3", "--sigma", "inf"],
     "sigma"),
    ("synth-order", ["synth", "cycle(4)", "--time-order", "0"], "order"),
    ("synth-n-sol", ["synth", "cycle(4)", "--n-sol", "-2"], "n_sol"),
    ("reconstruct-eta", ["reconstruct", "cycle(4)", "{d}/s.csv", "--eta", "0"], "eta"),
    ("reconstruct-edge", ["reconstruct", "cycle(4)", "{d}/s_neg.csv"], "line 8"),
    ("reconstruct-n-irr", ["reconstruct", "cycle(4)", "{d}/s.csv", "--n-irr", "-1"], "n_irr"),
    ("reconstruct-sub-size", ["reconstruct", "cycle(4)", "{d}/s.csv", "--sub-size", "-3"],
     "sub-size"),
    ("reconstruct-inf-sample", ["reconstruct", "cycle(4)", "{d}/s_inf.csv"], "line 2"),
    ("smooth-eta", ["decompose", "cycle(4)", "{d}/x.csv", "-k", "1", "--model",
                    "smooth", "--eta", "0"], "eta"),
    ("decompose-nan-chain", ["decompose", "cycle(4)", "{d}/x_nan.csv", "-k", "1"], "line 3"),
    ("decompose-extra-field", ["decompose", "cycle(4)", "{d}/x_extra.csv", "-k", "1"],
     "line 2: row has 3 fields"),
    ("reconstruct-extra-field", ["reconstruct", "cycle(4)", "{d}/s_extra.csv"],
     "line 2: row has 4 fields"),
    ("config-time-order", ["experiment", "{d}/order0.cfg"], "time_order"),
    ("config-nan", ["experiment", "{d}/nan.cfg"], "noise"),
    ("config-inf", ["experiment", "{d}/inf.cfg"], "noise"),
    ("config-alpha-nan", ["experiment", "{d}/alpha_nan.cfg"], "alpha"),
    ("config-ridge-nan", ["experiment", "{d}/ridge_nan.cfg"], "ridge"),
    ("config-lengthscale-0", ["experiment", "{d}/lengthscale0.cfg"], "lengthscale"),
    ("config-seed-negative", ["experiment", "{d}/seed_neg.cfg"], "seed"),
    ("config-repeated-key", ["experiment", "{d}/repeated_key.cfg"],
     "line 3: repeated config key 'trials'"),
    ("config-repeated-method", ["experiment", "{d}/repeated_method.cfg"],
     "repeated method 'gssc'"),
    ("config-repeated-noise", ["experiment", "{d}/repeated_noise.cfg"],
     "repeated sweep value '0.1'"),
    ("config-repeated-count", ["experiment", "{d}/repeated_count.cfg"],
     "repeated sweep value '5'"),
    ("config-bad-complex", ["experiment", "{d}/bad_complex.cfg"], "nonsense"),
    ("config-unknown-key", ["experiment", "{d}/unknown_key.cfg"],
     "line 2: unknown config key 'wavelets'"),
    ("config-not-utf8", ["experiment", "{d}/latin1.cfg"], "latin1.cfg: byte 14 is not UTF-8"),
    ("random-spec-field", ["homology", "random(5,.,1,3)"],
     "complex 'random(5,.,1,3)': edge_prob '.' is not a number"),
    ("random-spec-negative", ["homology", "random(5,-.5,1,3)"],
     "complex 'random(5,-.5,1,3)': edge_prob -0.5 is not in [0, 1]"),
    ("random-spec-overflow", ["homology", "random(5,1e400,1,3)"],
     "complex 'random(5,1e400,1,3)': edge_prob inf is not in [0, 1]"),
    ("random-spec-fill", ["homology", "random(5,1,1.5,3)"],
     "complex 'random(5,1,1.5,3)': fill_prob 1.5 is not in [0, 1]"),
    ("random-spec-no-vertex", ["homology", "random(0,0.5,0.5,1)"],
     "complex 'random(0,0.5,0.5,1)': n_vertices 0 is below 1"),
    ("experiment-jobs-0", ["experiment", "{d}/ok.cfg", "--jobs", "0"], "jobs"),
    ("experiment-jobs-negative", ["--jobs", "-5", "experiment", "{d}/ok.cfg"], "jobs"),
]


@pytest.mark.parametrize("argv,needle", [pytest.param(a, n, id=i) for i, a, n in BAD_INPUT])
def test_bad_input_exits_2_with_one_line_and_no_output(tmp_path, capsys, argv, needle):
    d = _bad_input_files(tmp_path)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "--out", str(out),
                            *[a.format(d=d) for a in argv])
    assert code == 2
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gssc: error:")
    assert needle in lines[0]
    assert "Traceback" not in err
    assert not out.exists()
