"""Config parsing, canonical serialization, and the command-line workflows.

Commands are exercised in-process through cli.main, which returns the exit
code: 0 success, 2 bad config/usage, 3 output I/O failure, 4 parameters
outside every supported regime. Any other exception escapes main, so the
process exits 1 with a traceback; that one is checked in a subprocess.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sislab import analysis
from sislab.cli import ConfigError, main, parse_config, serialize_config

ROOT = Path(__file__).resolve().parents[1]
# numpy's float64 exp rounds some results 1 ulp apart on its AVX-512 loop and
# on its baseline loop, so frozen outputs are recorded once for each loop
AVX512_EXP = np._core._multiarray_umath.__cpu_features__["AVX512_SKX"]

BASE_CFG = """\
[model]
N = 10
beta = 0.5
sigma = 0.2
mu_plus_gamma = 4
I0 = 1

[scheme]
h = 2^-6
alpha = 0.1
theta = 2

[run]
t_final = 1
n_paths = 256
base_seed = 42
"""

CONV_CFG = BASE_CFG + """
[convergence]
levels = 2^-4 2^-3
h_reference = 2^-8
"""

DYN_EXT_CFG = """\
[model]
N = 100
beta = 0.42
sigma = 0.9
mu_plus_gamma = 10
I0 = 90

[scheme]
h = 2^-2
alpha = 0.1
theta = 2

[run]
t_final = 5
n_paths = 6
base_seed = 7

[dynamics]
step_sizes = 2^-2 2^-1
n_seeds = 6
"""

DYN_GAP_CFG = """\
[model]
N = 10
beta = 0.5
sigma = 0.3
mu_plus_gamma = 1
I0 = 1

[scheme]
h = 2^-2
alpha = 0.1
theta = 2

[run]
t_final = 5
n_paths = 4
base_seed = 7

[dynamics]
step_sizes = 2^-2
n_seeds = 4
"""

# each LCM step adds about c0 h = -5e305 to Y, which passes the most
# negative double at step 343 (the finite constants pass ModelParams' checks)
HUGE_DRIFT_CFG = """\
[model]
N = 1e150
beta = 0.6
sigma = 1
mu_plus_gamma = 40
I0 = 10

[scheme]
h = 2^20
alpha = 0.1
theta = 2

[run]
t_final = 2^29
n_paths = 2
base_seed = 3

[convergence]
levels = 2^20 2^21
h_reference = 2^20
"""

TRUNC_CFG = """\
[model]
N = 100
beta = 0.42
sigma = 0.9
mu_plus_gamma = 10
I0 = 10

[scheme]
h = 2^-2
alpha = 0.1
theta = 2

[run]
t_final = 5
n_paths = 32
base_seed = 3

[truncation]
step_sizes = 2^-1 2^-2
I0 = 10 50
horizon = 5

[set.1]
N = 100
beta = 0.42
sigma = 0.9
mu_plus_gamma = 10

[set.2]
N = 100
beta = 0.42
sigma = 0.01
mu_plus_gamma = 10
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_power_of_two_tokens(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, CONV_CFG))
        assert cfg.scheme.h == 2.0**-6
        assert cfg.levels == (2.0**-4, 2.0**-3)
        assert cfg.h_reference == 2.0**-8

    def test_plain_values(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, CONV_CFG))
        assert cfg.model.N == 10.0
        assert cfg.model.beta == 0.5
        assert cfg.scheme.alpha == 0.1
        assert cfg.t_final == 1.0
        assert cfg.n_paths == 256
        assert cfg.base_seed == 42

    def test_truncation_sections(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, TRUNC_CFG))
        assert cfg.trunc_step_sizes == (0.5, 0.25)
        assert cfg.trunc_i0 == (10.0, 50.0)
        assert cfg.horizon == 5.0
        assert len(cfg.sets) == 2
        assert cfg.sets[0][0] == 1
        assert cfg.sets[1][1].sigma == 0.01

    def test_missing_model_field(self, tmp_path):
        text = CONV_CFG.replace("N = 10\n", "")
        with pytest.raises(ConfigError, match="model.N"):
            parse_config(write_cfg(tmp_path, text))

    def test_malformed_number(self, tmp_path):
        text = CONV_CFG.replace("N = 10", "N = abc")
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, text))

    def test_invalid_scheme_parameter(self, tmp_path):
        text = CONV_CFG.replace("theta = 2", "theta = 1")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.cfg"))


class TestSerializeConfig:
    def test_canonical_tokens(self, tmp_path):
        text = serialize_config(parse_config(write_cfg(tmp_path, CONV_CFG)))
        assert "h = 2^-6" in text
        assert "N = 10" in text
        assert "alpha = 0.1" in text
        assert "theta = 2" in text
        assert "levels = 2^-4 2^-3" in text
        assert "base_seed = 42" in text

    def test_round_trip_is_identity(self, tmp_path):
        for source in (CONV_CFG, DYN_EXT_CFG, TRUNC_CFG):
            cfg = parse_config(write_cfg(tmp_path, source))
            again = write_cfg(tmp_path, serialize_config(cfg), name="canon.cfg")
            assert parse_config(again) == cfg

    # sha256 of serialize_config's text for each shipped config: the order of
    # sections and of keys, and every token, byte for byte
    SHIPPED = {
        "configs/ex5_1.cfg":
            "1ff4718c95b74b69096a383085a60fc4e1773b296fb2b50917213dd211470f8e",
        "configs/ex5_2.cfg":
            "22a881b4a54cfa46e6aee3de405a167911ca1ecebacd9ff9e6a2f63ea5ef53b6",
        "configs/ex5_3.cfg":
            "e84d065ad1022462bd30d81c0c63374807b52e6039437179d90c4cde35fc332e",
        "configs/ex5_4.cfg":
            "06056478a791c0081d6051bc7075c80576399231d6e290651f52b6110c4db218",
        "configs/table4_sets.cfg":
            "0560d7b861c04d80243d81dfa71403001256d68c189c98b6df9377698fdb2248",
        "perfbench/violation.cfg":
            "6867dda71b1dac92013f9a3ab176e1ca7efc6ef9491f8a470fafde76a9277519",
    }

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_configs_text_is_frozen(self, name):
        text = serialize_config(parse_config(str(ROOT / name)))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHIPPED[name], text


def run_python(script):
    """Run script in a fresh interpreter that imports sislab from this tree."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)


def test_import_leaves_process_pools_out():
    # the path-range workers are forked with os.fork and send their results
    # through pipes, so neither importing sislab nor a sharded run loads a
    # process pool's modules
    proc = run_python("import sys\n"
                      "import sislab.cli\n"
                      "pools = {'multiprocessing', 'concurrent.futures'}\n"
                      "print(sorted(pools & set(sys.modules)))\n"
                      "from sislab import analysis\n"
                      "from sislab.model import ModelParams\n"
                      "analysis._cores = lambda: 2\n"
                      "analysis._SHARD_FLOOR = 0\n"
                      "import os\n"
                      "forks, fork = [], os.fork\n"
                      "os.fork = lambda: forks.append(1) or fork()\n"
                      "p = ModelParams(N=100, beta=0.5, sigma=0.03, mu_plus_gamma=45,"
                      " I0=50)\n"
                      "analysis.milstein_violation_fraction(p, h=0.25, t_final=5.0,"
                      " n_paths=4, base_seed=1)\n"
                      "print(len(forks), sorted(pools & set(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "2 []"]  # a sharded run


class TestCliErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_bad_config_exit(self, tmp_path, capsys):
        text = CONV_CFG.replace("N = 10\n", "")
        path = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", path]) == 2
        assert "model.N" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_convergence_requires_section(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["convergence", "--config", path]) == 2
        assert "convergence" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_cfg(tmp_path, CONV_CFG)
        out = str(blocker / "sub")
        assert main(["convergence", "--config", path, "--out", out]) == 3

    @pytest.mark.parametrize("paths", ["0", "-5"])
    @pytest.mark.parametrize("command, text, output", [
        ("convergence", CONV_CFG, "error_table.csv"),
        ("truncation", TRUNC_CFG, "truncation.csv"),
        ("dynamics", DYN_EXT_CFG, "dynamics_2m2.csv"),
    ])
    def test_non_positive_paths_is_config_error(self, tmp_path, capsys, command,
                                                text, output, paths):
        # regression: --paths 0 once wrote NaN tables with exit 0, and
        # --paths -5 surfaced numpy's "negative dimensions" message
        path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out),
                     "--paths", paths]) == 2
        assert f"path count must be positive, got {paths}" in capsys.readouterr().err
        assert not (out / output).exists()

    def test_huge_step_is_config_error(self, tmp_path, capsys):
        # regression: h = 1e200 once escaped as an OverflowError traceback
        path = write_cfg(tmp_path, CONV_CFG.replace("h = 2^-6", "h = 1e200"))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scheme: h = 1e+200 is too large")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "dynamics"])
    def test_horizon_not_whole_steps_is_config_error(self, tmp_path, capsys, command):
        # both commands check the horizon with the one whole-steps check in
        # sislab.analysis, before any output is opened
        text = (DYN_EXT_CFG.replace("t_final = 5", "t_final = 1")
                .replace("h = 2^-2", "h = 0.3")
                .replace("step_sizes = 2^-2 2^-1", "step_sizes = 0.3"))
        path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_final 1.0 is not a whole number")
        assert "Traceback" not in err
        assert not out.is_file() and not list(tmp_path.rglob("dynamics_*.csv"))

    def test_every_dynamics_step_size_checked_before_any_runs(self, tmp_path, capsys):
        # regression: with step_sizes = 2^-2 0.3 the command wrote
        # dynamics_2m2.csv and printed its summary before it rejected 0.3
        path = write_cfg(tmp_path, DYN_EXT_CFG.replace("step_sizes = 2^-2 2^-1",
                                                       "step_sizes = 2^-2 0.3"))
        out = tmp_path / "o"
        assert main(["dynamics", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: t_final 5.0 is not a whole number of steps of 0.3")
        assert captured.out == ""
        assert not list(tmp_path.rglob("dynamics_*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "dynamics"])
    def test_horizon_within_rounding_of_whole_steps_runs(self, tmp_path, command):
        # regression: the grid step 1.7 / 17 is 0.09999999999999999, one ulp
        # from h = 0.1; both commands once exited 1 on that disagreement
        text = (DYN_EXT_CFG.replace("beta = 0.42", "beta = 0.6")
                .replace("sigma = 0.9", "sigma = 0.01")
                .replace("mu_plus_gamma = 10", "mu_plus_gamma = 40")
                .replace("I0 = 90", "I0 = 10")
                .replace("t_final = 5", "t_final = 1.7")
                .replace("h = 2^-2", "h = 0.1")
                .replace("step_sizes = 2^-2 2^-1", "step_sizes = 0.1"))
        path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        csv = out if command == "simulate" else out / "dynamics_0p1.csv"
        lines = csv.read_text().splitlines()
        assert len(lines) == (19 if command == "simulate" else 7)
        assert lines[-1].split(",")[0] == ("1.7" if command == "simulate" else "5")

    @pytest.mark.parametrize("command, text, message", [
        ("convergence", CONV_CFG.replace("levels = 2^-4 2^-3", "levels = 2^-4"),
         "rate fit needs at least two"),
        ("convergence", CONV_CFG.replace("levels = 2^-4 2^-3", "levels = 2^-4 2^-4"),
         "rate fit needs at least two distinct"),
        ("convergence", CONV_CFG.replace("levels = 2^-4 2^-3", "levels = 2^-4 -1"),
         "convergence.levels: h must be positive"),
        ("dynamics", DYN_EXT_CFG.replace("step_sizes = 2^-2 2^-1", "step_sizes = 0"),
         "dynamics.step_sizes: h must be positive"),
        ("dynamics", DYN_EXT_CFG.replace("t_final = 5", "t_final = 0.5"),
         "too short to classify"),
        ("truncation", TRUNC_CFG.replace("I0 = 10 50", "I0 = 10 150"),
         "truncation.I0: I0 must lie in (0, N)"),
        # 2.0 ** 1024 exited 1 with OverflowError
        ("dynamics", DYN_EXT_CFG.replace("h = 2^-2", "h = 2^1024"),
         "scheme.h: cannot parse number '2^1024'"),
        # a non-finite horizon exited 1 with round()'s OverflowError or ValueError;
        # parse_config now rejects it, also a t_final that truncation's own
        # horizon leaves unused (serialize_config could not write it back)
        *((command, text.replace(old, f"{key} = {bad}"),
           f"{key} must be finite and positive, got {bad}")
          for command, text, old, key in (
              ("simulate", DYN_EXT_CFG, "t_final = 5", "t_final"),
              ("dynamics", DYN_EXT_CFG, "t_final = 5", "t_final"),
              ("convergence", CONV_CFG, "t_final = 1", "t_final"),
              ("truncation", TRUNC_CFG, "horizon = 5", "horizon"),
              ("truncation", TRUNC_CFG, "t_final = 5", "t_final"))
          for bad in ("inf", "-inf", "nan")),
        # float64 cannot hold sigma^2 N^2 or sigma^2: simulate wrote NaN with
        # exit 0, and dynamics exited 1 on reproduction_numbers' OverflowError
        *((command, DYN_EXT_CFG.replace(old, new), "model: a constant derived")
          for command in ("simulate", "dynamics")
          for old, new in (("N = 100", "N = 1e155"), ("sigma = 0.9", "sigma = 1e200"))),
    ])
    def test_config_value_errors_are_config_errors(self, tmp_path, capsys, command,
                                                   text, message):
        # what a config can get wrong exits 2, without a traceback or a file
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_exits_1(self, tmp_path):
        # a ValueError from inside the program is a fault, not a bad config:
        # it must not be reported as "config error" with exit 2
        path = write_cfg(tmp_path, TRUNC_CFG)
        argv = ["truncation", "--config", path, "--out", str(tmp_path / "o")]
        script = ("import sys\n"
                  "import sislab.analysis\n"
                  "from sislab.cli import main\n"
                  "def fault(*args, **kwargs):\n"
                  "    raise ValueError('injected fault')\n"
                  "sislab.analysis.lcm_evolve = fault\n"
                  f"sys.exit(main({argv!r}))\n")
        src = str(ROOT / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert "ValueError: injected fault" in proc.stderr
        assert "config error" not in proc.stderr

    def test_internal_value_error_in_worker_exits_1(self, tmp_path):
        # the same fault raised inside a forked path-range worker must reach
        # the parent as the ValueError it is, not as a config error
        path = write_cfg(tmp_path, TRUNC_CFG)
        argv = ["truncation", "--config", path, "--out", str(tmp_path / "o")]
        script = ("import sys\n"
                  "import sislab.analysis\n"
                  "from sislab.cli import main\n"
                  "def fault(*args, **kwargs):\n"
                  "    raise ValueError('injected fault')\n"
                  "sislab.analysis.lcm_evolve = fault\n"
                  "sislab.analysis._cores = lambda: 2\n"
                  "sislab.analysis._SHARD_FLOOR = 0\n"
                  f"sys.exit(main({argv!r}))\n")
        proc = run_python(script)
        assert proc.returncode == 1
        # the worker's own traceback, down to the faulting call
        assert "in _truncation_chunk" in proc.stderr
        assert "in fault" in proc.stderr
        assert "ValueError: injected fault" in proc.stderr
        assert "config error" not in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_state_leaving_float64_is_precondition_error(self, tmp_path, capsys,
                                                         command):
        # Y reached -inf with exit 0 (simulate wrote I = 0, Y = -inf rows); at
        # h = 2^16 it leaves in the second time block, and the step is counted
        # from the start of the run (step 1391 of that block's kernel call)
        for h, coarse, step in [("2^20", "2^21", 343), ("2^16", "2^17", 5487)]:
            path = write_cfg(tmp_path, HUGE_DRIFT_CFG.replace("2^21", coarse)
                             .replace("2^20", h))
            out = tmp_path / f"o{step}"
            assert main([command, "--config", path, "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("precondition error: ")
            assert f"row 0 from step {step} on" in err
            assert "Traceback" not in err
            assert not (out / "error_table.csv").exists()

    def test_zero_strong_errors_are_precondition_error(self, tmp_path, capsys):
        # table 4's set 1 over T = 1: c0 is about -4,018, so the reference and
        # every level round I to 0.0 and every gap is exactly 0; this ran the
        # whole experiment, then exited 2 as a config error with no file
        text = (DYN_EXT_CFG.split("[dynamics]")[0].replace("t_final = 5", "t_final = 1")
                .replace("n_paths = 6", "n_paths = 16")
                + "[convergence]\nlevels = 2^-10 2^-9 2^-8 2^-7 2^-6\n"
                "h_reference = 2^-14\n")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("precondition error: strong error is exactly 0 at "
                              "h = 2^-10 2^-9 2^-8 2^-7 2^-6")
        assert "Traceback" not in err
        rows = (out / "error_table.csv").read_text().splitlines()
        assert rows[0] == "h,error" and len(rows) == 6
        assert {row.split(",")[1] for row in rows[1:]} == {"0.0"}
        assert not (out / "rate_fit.csv").exists()
        assert not (out / "loglog.csv").exists()

    def test_gap_regime_dynamics_is_precondition_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DYN_GAP_CFG)
        assert main(["dynamics", "--config", path, "--out", str(tmp_path / "o")]) == 4
        assert "regime" in capsys.readouterr().err.lower()

    def test_extinction_rate_of_zero_is_precondition_error(self, tmp_path, capsys):
        # LARGE_SIGMA, but beta^2 / (2 sigma^2) - (mu + gamma) rounds to 0.0: the
        # runs were reported Extinct against a decay rate of 0
        text = DYN_GAP_CFG.replace("N = 10\nbeta = 0.5\nsigma = 0.3\nmu_plus_gamma = 1",
                                   "N = 3235.385810186429\nbeta = 0.013132642725535769\n"
                                   "sigma = 0.014835900944702692\n"
                                   "mu_plus_gamma = 0.39178374489907764")
        path = write_cfg(tmp_path, text)
        assert main(["dynamics", "--config", path, "--out", str(tmp_path / "o")]) == 4
        assert "regime" in capsys.readouterr().err.lower()
        assert not (tmp_path / "o").exists()

    def test_repeated_set_label_is_config_error(self, tmp_path, capsys):
        # [set.1] and [set.01] both parse as label 1, which wrote two rows for it
        path = write_cfg(tmp_path, TRUNC_CFG.replace("[set.2]", "[set.01]"))
        out = tmp_path / "tr"
        assert main(["truncation", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "set.01" in err and "label 1" in err
        assert not out.exists()


class TestSimulate:
    def test_lcm_trajectory(self, tmp_path):
        path = write_cfg(tmp_path, CONV_CFG)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,I,Y,truncated"
        assert len(lines) == 66  # t_final/h + 1 states at h = 2^-6
        for row in lines[1:]:
            i_val = float(row.split(",")[1])
            assert 0.0 < i_val < 10.0

    def test_milstein_trajectory(self, tmp_path):
        path = write_cfg(tmp_path, CONV_CFG)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", path, "--scheme", "milstein",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "t,I"

    def test_stdout_by_default(self, tmp_path, capsys):
        path = write_cfg(tmp_path, CONV_CFG)
        assert main(["simulate", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("t,I,Y,truncated\n")

    def test_seed_override(self, tmp_path):
        path = write_cfg(tmp_path, CONV_CFG)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", path, "--out", str(a)])
        main(["simulate", "--config", path, "--out", str(b), "--seed", "9"])
        main(["simulate", "--config", path, "--out", str(c), "--seed", "9"])
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_missing_output_directory(self, tmp_path, capsys):
        path = write_cfg(tmp_path, CONV_CFG)
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert main(["simulate", "--config", path, "--out", out]) == 3

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("scheme", ["lcm", "milstein"])
    def test_no_kernel_call_steps_more_than_a_block(self, tmp_path, monkeypatch,
                                                   scheme, block):
        # 8,192 steps: two default blocks, or 1,171 blocks of 7
        if block:
            monkeypatch.setattr(analysis, "_BLOCK", block)
        calls = []
        for name in ("lcm_evolve", "milstein_evolve"):
            def spy(state, dw, *args, _kernel=getattr(analysis, name), **kwargs):
                calls.append(dw.shape[1])
                return _kernel(state, dw, *args, **kwargs)
            monkeypatch.setattr(analysis, name, spy)
        path = write_cfg(tmp_path, CONV_CFG.replace("h = 2^-6", "h = 2^-13"))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", path, "--scheme", scheme,
                     "--out", str(out)]) == 0
        assert sum(calls) == 8192
        assert max(calls) <= analysis._BLOCK
        assert len(calls) == -(-8192 // analysis._BLOCK)
        assert len(out.read_text().splitlines()) == 8194

    @pytest.mark.parametrize("block", [100, None])
    def test_failed_run_leaves_no_file(self, tmp_path, capsys, monkeypatch, block):
        # Y leaves float64 at step 343: in 100-step blocks, 300 steps' rows are
        # written before the run fails
        if block:
            monkeypatch.setattr(analysis, "_BLOCK", block)
        path = write_cfg(tmp_path, HUGE_DRIFT_CFG)
        out = tmp_path / "traj.csv"
        out.write_text("an older trajectory\n")
        assert main(["simulate", "--config", path, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("precondition error: ")
        assert not out.exists()

    def test_paths_flag_is_usage_error(self, tmp_path, capsys):
        # simulate writes one path: it took --paths and ignored it, so even
        # --paths -3 exited 0
        path = write_cfg(tmp_path, CONV_CFG)
        assert main(["simulate", "--config", path, "--paths", "3"]) == 2
        assert "unrecognized arguments: --paths 3" in capsys.readouterr().err


class TestConvergence:
    def test_outputs(self, tmp_path):
        path = write_cfg(tmp_path, CONV_CFG)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 0
        table = (out / "error_table.csv").read_text().splitlines()
        assert table[0] == "h,error"
        assert len(table) == 3
        assert all(float(r.split(",")[1]) > 0.0 for r in table[1:])
        fit = (out / "rate_fit.csv").read_text().splitlines()
        assert fit[0] == "q,residual"
        q = float(fit[1].split(",")[0])
        assert 0.3 < q < 1.7
        loglog = (out / "loglog.csv").read_text().splitlines()
        assert loglog[0] == "log_h,log_error,order_one_reference"
        assert len(loglog) == 3

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        # the second run steps its 256 paths in chunks of 7
        path = write_cfg(tmp_path, CONV_CFG)
        outs = []
        for name, chunk in (("c1", 1024), ("c2", 7)):
            monkeypatch.setattr(analysis, "_CHUNK", chunk)
            out = tmp_path / name
            code = main(["convergence", "--config", path, "--out", str(out)])
            assert code == 0
            outs.append((out / "error_table.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_errors(self, tmp_path):
        path = write_cfg(tmp_path, CONV_CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["convergence", "--config", path, "--out", str(out1)])
        main(["convergence", "--config", path, "--out", str(out2), "--seed", "5"])
        a = (out1 / "error_table.csv").read_bytes()
        b = (out2 / "error_table.csv").read_bytes()
        assert a != b


class TestDynamics:
    def test_extinction_summary(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DYN_EXT_CFG)
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", path, "--out", str(out)]) == 0
        for label in ("2m2", "2m1"):
            lines = (out / f"dynamics_{label}.csv").read_text().splitlines()
            assert lines[0] == "seed,kind,lyapunov,crossings,terminal"
            assert len(lines) == 7
            assert all(r.split(",")[1] == "Extinct" for r in lines[1:])
        assert "Extinct" in capsys.readouterr().out

    def test_paths_flag_overrides_seed_count(self, tmp_path):
        path = write_cfg(tmp_path, DYN_EXT_CFG)
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", path, "--out", str(out),
                     "--paths", "3"]) == 0
        lines = (out / "dynamics_2m2.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("sharded", [True, False])
    def test_persistence_summaries_are_frozen(self, tmp_path, monkeypatch, sharded):
        # sha256 of the summaries recorded from the code that stepped 25 paths
        # per recording call and reran regime_report for every trajectory
        # (the baseline exp loop's from the code that streams them in blocks);
        # neither streaming nor sharding the paths over forked workers may
        # move a byte
        if sharded:
            monkeypatch.setattr(analysis, "_SHARD_FLOOR", 0)
        expected = {
            "2m2": "765e7db39d783b359994e79c215daec645fca83dc157c78b0d474c451b240ef5",
            "2m1": "5ea58d4074b06bbb011de9afb6bd543140019d806a6d5ca06b3dc167aff99e34",
        } if AVX512_EXP else {
            "2m2": "b9bf3af0069c7f81bd8ce71d58b830c0775f6364d9b10eb17ba628c0916423df",
            "2m1": "261dced899c0e67e3945567ad30af3c61111c447a0a7dc990b9be37b417a062d",
        }
        out = tmp_path / "dyn"
        assert main(["dynamics", "--config", str(ROOT / "configs" / "ex5_4.cfg"),
                     "--out", str(out), "--paths", "30"]) == 0
        assert {label: hashlib.sha256((out / f"dynamics_{label}.csv").read_bytes())
                .hexdigest() for label in expected} == expected

    @pytest.mark.parametrize("config, labels", [
        ("ex5_4.cfg", ("2m2", "2m1")), ("ex5_3.cfg", ("2m4", "2m2", "2m1"))],
        ids=["ex5_4", "ex5_3"])
    def test_time_blocks_do_not_move_a_byte(self, tmp_path, monkeypatch, config,
                                            labels):
        # in ex5_4's 7-step blocks the second half starts on a block's first
        # new state at h = 2^-2 (state 400) and inside a block at h = 2^-1
        # (state 200), and each path's last sign carries across 57 or 29 block
        # boundaries; in 4,096-step blocks each run is one recorded block
        blobs = []
        for name, block in (("default", analysis._DYNAMICS_BLOCK), ("b7", 7),
                            ("b4096", 4096)):
            monkeypatch.setattr(analysis, "_DYNAMICS_BLOCK", block)
            out = tmp_path / name
            assert main(["dynamics", "--config", str(ROOT / "configs" / config),
                         "--out", str(out), "--paths", "30"]) == 0
            blobs.append([(out / f"dynamics_{label}.csv").read_bytes()
                          for label in labels])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # ex5_4's parameters at T = 2,000 and h = 2^-6: 100 seeds x 128,000
        # steps, which whole recorded paths would hold in 247 MB; streamed in
        # time blocks, the process and its workers each peak near 40 MB
        text = (ROOT / "configs" / "ex5_4.cfg").read_text().split("[run]")[0]
        path = write_cfg(tmp_path, text + "[run]\nt_final = 2000\nn_paths = 100\n"
                         "base_seed = 5001\n\n[dynamics]\nstep_sizes = 2^-6\n"
                         "n_seeds = 100\n")
        # Linux carries ru_maxrss across exec, so the interpreter's own
        # RUSAGE_SELF would report this pytest process's peak: it reads its
        # high-water mark VmHWM instead where /proc has one
        argv = ["dynamics", "--config", path, "--out", str(tmp_path / "o")]
        proc = run_python("import resource\n"
                          "from sislab.cli import main\n"
                          f"assert main({argv!r}) == 0\n"
                          "try:\n"
                          "    with open('/proc/self/status') as fh:\n"
                          "        own = next(int(line.split()[1]) for line in fh\n"
                          "                   if line.startswith('VmHWM:'))\n"
                          "except (OSError, StopIteration):\n"
                          "    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                          "print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN)"
                          ".ru_maxrss))\n")
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-1]) / 1024  # both are in KiB
        assert peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"


    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the interpreter's VmHWM from /proc")
    def test_recording_chunk_memory_does_not_grow_with_the_block(self):
        # 1,024 seeds of ex5_4's model at T = 128, h = 2^-6 in one process and
        # one chunk: holding a 4,096-step draw and its recording at once
        # peaked at 104.8 MiB; in 128-step blocks the chunk holds under 1 MiB
        proc = run_python("from sislab import analysis\n"
                          "from sislab.model import ModelParams\n"
                          "from sislab.schemes import SchemeParams\n"
                          "analysis._cores = lambda: 1\n"
                          "p = ModelParams(N=100, beta=0.6, sigma=0.01,"
                          " mu_plus_gamma=40, I0=10)\n"
                          "s = SchemeParams(h=2.0**-6, alpha=0.1, theta=2.0)\n"
                          "v = analysis.dynamics_verdicts(p, s, 128.0, 1024, 5001)\n"
                          "assert len(v) == 1024\n"
                          "with open('/proc/self/status') as fh:\n"
                          "    print(next(int(line.split()[1]) for line in fh\n"
                          "               if line.startswith('VmHWM:')))\n")
        assert proc.returncode == 0, proc.stderr
        peak_mib = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in KiB
        assert peak_mib < 60, f"VmHWM {peak_mib:.1f} MiB"


class TestTruncation:
    def test_table_output(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TRUNC_CFG)
        out = tmp_path / "tr"
        assert main(["truncation", "--config", path, "--out", str(out)]) == 0
        lines = (out / "truncation.csv").read_text().splitlines()
        assert lines[0] == "set,I0,h,percent"
        assert len(lines) == 1 + 2 * 2 * 2  # sets x I0 values x step sizes
        labels = {r.split(",")[0] for r in lines[1:]}
        assert labels == {"1", "2"}

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        # the second run steps its paths in chunks of 5
        path = write_cfg(tmp_path, TRUNC_CFG)
        blobs = []
        for name, chunk in (("t1", 8192), ("t2", 5)):
            monkeypatch.setattr(analysis, "_CHUNK", chunk)
            out = tmp_path / name
            code = main(["truncation", "--config", path, "--out", str(out)])
            assert code == 0
            blobs.append((out / "truncation.csv").read_bytes())
        assert blobs[0] == blobs[1]
