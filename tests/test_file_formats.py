"""The five text formats: every reader branch, the exact bytes of each CSV
writer, and a seeded corruption fuzz.

`.scx` and `.dcx` complexes, chain CSVs, sample CSVs and sweep configs are
read through one line reader and one CSV reader, and every CSV is written by
one writer.  Each refusal below must be a `FormatError` whose message names
the line or the file; the fuzz runs byte-level corruptions of valid files
through the command line, where every case must either succeed or exit 2
with one error line.
"""

import numpy as np
import pytest

import gssc.cli
from gssc import (ChainVector, FormatError, FourierFn, Integer, ModN, Real,
                  SampleSet, SynthSpec, canonical_complex, load_chain,
                  load_complex, load_delta, load_samples, parse_config,
                  random_complex, sample_async, save_chain, save_complex,
                  save_delta, save_samples, synthesize)

CYCLE3 = canonical_complex("cycle(3)")

READERS = {
    "scx": load_complex,
    "dcx": load_delta,
    "chain": lambda path: load_chain(path, CYCLE3, 1, Real()),
    "fourier": lambda path: load_chain(path, CYCLE3, 1, FourierFn(1)),
    "samples": lambda path: load_samples(path, 2),
    "cfg": parse_config,
}

REFUSALS = [
    ("dcx-empty", "dcx", "# nothing\n\n", "empty file"),
    ("dcx-header", "dcx", "B1\n", "line 1: expected 'dims n_0 ... n_K' header"),
    ("dcx-dims-text", "dcx", "dims 2 x\n", "line 1: dims header must list integers"),
    ("dcx-dims-negative", "dcx", "dims 2 -1\n",
     "line 1: dims must be non-negative and non-empty"),
    ("dcx-missing-block", "dcx", "dims 2 3\n", "missing block B1"),
    ("dcx-block-header", "dcx", "dims 1 1\nB2\n",
     "line 2: expected block header 'B1', got 'B2'"),
    ("dcx-short-block", "dcx", "dims 2 1\nB1\n-1\n", "block B1 ends after 1 of 2 rows"),
    ("dcx-entry", "dcx", "dims 2 1\nB1\n-1\n1.0\n", "line 4: non-integer entry in block B1"),
    ("dcx-row-length", "dcx", "dims 2 1\nB1\n-1 1\n",
     "line 3: block B1 row has 2 entries, expected 1"),
    ("dcx-trailing", "dcx", "dims 2 1\nB1\n-1\n1\n\nB2\n",
     "line 6: unexpected trailing content 'B2'"),
    ("scx-negative", "scx", "0 1\n# two\n-1 2\n", "line 3: negative vertex index"),
    ("scx-repeated", "scx", "0 1 1\n", "line 1: repeated vertex in simplex [0, 1, 1]"),
    ("scx-none", "scx", "# only a comment\n", "no simplexes found"),
    ("chain-empty", "chain", "", "empty file"),
    ("chain-header", "chain", "cell,val\n0,1\n", "header ['cell', 'val'] is not cell,value"),
    ("fourier-header", "fourier", "edge,c0,c1\n",
     "header ['edge', 'c0', 'c1'] is not edge,c0,c1,c2"),
    ("chain-value", "chain", "cell,value\n0,1.0\n\n1,x\n", "line 4: bad value row ['1', 'x']"),
    ("chain-csv", "chain", "cell,value\n0," + "1" * 140000 + "\n",
     "bad.chain: field larger than field limit"),
    ("samples-empty", "samples", "", "empty file"),
    ("samples-header", "samples", "edge,time,y\n",
     "header ['edge', 'time', 'y'] is not edge,t,y"),
    ("samples-row", "samples", "edge,t,y\n0,0.0,one\n", "line 2: bad sample row"),
    ("samples-none", "samples", "edge,t,y\n\n", "no samples"),
    ("cfg-crlf-line-numbers", "cfg", "trials = 1\r\n\r\n# c\r\nwavelets = 9\r\n",
     "line 4: unknown config key 'wavelets'"),
]


# the exact bytes each CSV writer emits: csv's minimal quoting, comma
# delimiter and \r\n line ends; floats as their shortest round-trip repr and
# exact values as plain integers.  The values are typed in, so no LAPACK
# rounding reaches the text.
WRITTEN_CHAINS = [
    ("real", Real(), [1 / 3, -1e300], b"cell,value\r\n0,0.3333333333333333\r\n1,-1e+300\r\n"),
    ("integer", Integer(), [-3, 10**30],
     b"cell,value\r\n0,-3\r\n1,1000000000000000000000000000000\r\n"),
    ("mod2", ModN(2), [3, -2], b"cell,value\r\n0,1\r\n1,0\r\n"),
    ("fourier", FourierFn(1), [[0.1, 2, -1e-300], [1 / 3, 0, 1]],
     b"edge,c0,c1,c2\r\n0,0.1,2.0,-1e-300\r\n1,0.3333333333333333,0.0,1.0\r\n"),
]


@pytest.mark.parametrize("system,values,data",
                         [pytest.param(*row[1:], id=row[0]) for row in WRITTEN_CHAINS])
def test_save_chain_writes_these_bytes_and_reads_them_back(tmp_path, system, values, data):
    path3 = canonical_complex("path(3)")
    x = ChainVector(path3, 1, system, values)
    path = tmp_path / "x.csv"
    save_chain(x, path)
    assert path.read_bytes() == data
    assert np.array_equal(load_chain(path, path3, 1, system).values, x.values)


def test_save_samples_writes_these_bytes_and_reads_them_back(tmp_path):
    samples = SampleSet(np.array([[0.1, -2.5], [1 / 3, 0.0]]),
                        np.array([[1e300, -0.0], [7.0, 1 / 7]]))
    path = tmp_path / "s.csv"
    save_samples(samples, path)
    assert path.read_bytes() == (b"edge,t,y\r\n0,0.1,1e+300\r\n0,-2.5,-0.0\r\n"
                                 b"1,0.3333333333333333,7.0\r\n"
                                 b"1,0.0,0.14285714285714285\r\n")
    back = load_samples(path, 2)
    assert np.array_equal(back.t, samples.t) and np.array_equal(back.y, samples.y)


@pytest.mark.parametrize("fmt,text,needle",
                         [pytest.param(f, t, n, id=i) for i, f, t, n in REFUSALS])
def test_every_refusal_names_its_line_or_file(tmp_path, fmt, text, needle):
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(FormatError) as info:
        READERS[fmt](path)
    assert needle in str(info.value)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_a_file_that_is_not_utf8_is_refused_with_its_path(tmp_path, fmt):
    path = tmp_path / f"latin1.{fmt}"
    path.write_bytes(b"# ok\n\n# caf\xe9\n")
    with pytest.raises(FormatError,
                       match=f"line 3: .*latin1.{fmt}: byte 11 is not UTF-8"):
        READERS[fmt](path)


# -- fuzz ------------------------------------------------------------------------

FUZZ_SEED = 20
FUZZ_CASES = 100
FUZZ_FORMATS = ("scx", "dcx", "chain-real", "chain-mod2", "chain-fourier",
                "samples", "cfg")


def _fuzz_format(tmp_path, fmt):
    """A writer of a valid file of `fmt`, and the command line that reads it."""
    out = str(tmp_path / "out")
    rep = canonical_complex("cycle(4)")
    f = synthesize(rep, SynthSpec(n_irr=2, n_sol=2, time_order=1, seed=0))
    real = ChainVector(rep, 1, Real(), np.array([1.0, -0.5, 2.0, 0.25]))
    mod2 = ChainVector(canonical_complex("cycle(5)"), 1, ModN(2),
                       np.array([1, 0, 1, 1, 0], dtype=object))
    return {
        "scx": (lambda p: save_complex(random_complex(6, 0.6, 0.5, seed=1), p),
                ["homology", "{f}"]),
        "dcx": (lambda p: save_delta(canonical_complex("rp2"), p),
                ["homology", "{f}", "--all"]),
        "chain-real": (lambda p: save_chain(real, p),
                       ["decompose", "cycle(4)", "{f}", "-k", "1", "--out", out]),
        # cycle(5) is odd, so every Z/2 1-chain has a fundamental split
        "chain-mod2": (lambda p: save_chain(mod2, p),
                       ["decompose", "cycle(5)", "{f}", "-k", "1", "--system", "mod2",
                        "--out", out]),
        "chain-fourier": (lambda p: save_chain(f, p),
                          ["sample", "cycle(4)", "{f}", "-M", "2", "--time-order", "1",
                           "--out", out]),
        "samples": (lambda p: save_samples(sample_async(f, 4, 0.0, seed=0), p),
                    ["reconstruct", "cycle(4)", "{f}", "--time-order", "1",
                     "--n-irr", "2", "--n-sol", "2", "--out", out]),
        "cfg": (lambda p: p.write_text(
            "# sweep\ncomplex = cycle(4)\nsweep = samples\n"
            "sample_counts = 5, 10\ntrials = 1\nseed = 3\neta = 2.5\n"),
            ["experiment", "{f}", "--out", out]),
    }[fmt]


def corrupt(data, rng):
    """`data` with 1-3 bytes at one offset deleted, inserted or replaced; new
    bytes are drawn from the file's own bytes and from all 256 values."""
    n = int(rng.integers(1, 4))
    at = int(rng.integers(0, len(data) - n + 1))
    pool = np.frombuffer(data + bytes(range(256)), dtype=np.uint8)
    new = rng.choice(pool, n).tobytes()
    op = int(rng.integers(3))
    return data[:at] + (b"" if op == 0 else new) + data[at + (0 if op == 1 else n):]


@pytest.mark.parametrize("fmt", FUZZ_FORMATS)
def test_corrupted_files_succeed_or_exit_2_with_one_error_line(tmp_path, capsys,
                                                                monkeypatch, fmt):
    # the sweep itself is not the parser's: a corrupted trial count could ask
    # for hours of work, so a parsed config runs nothing.  The config names
    # no methods, since an unknown method name is an unsupported request
    # (exit 3) rather than bad input
    monkeypatch.setattr(gssc.cli, "run_experiment", lambda *args, **kwargs: None)
    write, argv = _fuzz_format(tmp_path, fmt)
    valid = tmp_path / f"valid.{fmt}"
    write(valid)
    data = valid.read_bytes()
    path = tmp_path / f"case.{fmt}"
    rng = np.random.default_rng([FUZZ_SEED, FUZZ_FORMATS.index(fmt)])
    codes = []
    for case in range(FUZZ_CASES):
        bad = corrupt(data, rng)
        path.write_bytes(bad)
        code = gssc.cli.main([a.format(f=path) for a in argv])
        out, err = capsys.readouterr()
        assert code in (0, 2), (case, bad, err)
        if code == 2:
            assert out == "", (case, bad)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("gssc: error:"), (case, bad, err)
        codes.append(code)
    assert 0 < codes.count(2) < FUZZ_CASES
