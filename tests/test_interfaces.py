"""Cross-module interface contracts: golden files, immutability, CLI surface,
the run-time dependencies."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import outtree
from outtree import cli, models, semisup, treemath
from outtree import io as otio

# frozen from the enumeration oracle (all 9 trees, matched within 3e-16)
GOLDEN_MARGINALS = """\
# outtree-matrix T=3
0.0\t0.2943495400788434\t0.2276609724047304
0.4375821287779239\t0.0\t0.28580814717477
0.47371879106438897\t0.2808804204993429\t0.0
"""


class TestGoldenDump:
    def test_edge_marginals_dump_matches_golden_bytes(self, tmp_path):
        # fixed instance; repr floats make the bytes platform-stable
        beta = treemath.WeightMatrix(entries=[[0.0, 0.7, 0.55],
                                              [0.9, 0.0, 0.6],
                                              [0.7, 0.45, 0.0]])
        roots = treemath.RootWeights(values=[1.0, 0.8, 0.6])
        marginals = treemath.edge_marginals(beta, roots)
        path = str(tmp_path / "w.tsv")
        otio.write_matrix_tsv(path, marginals.W)
        assert open(path).read() == GOLDEN_MARGINALS
        # and the dump still agrees with the enumeration oracle
        table = treemath.brute_force_log_partition(beta, roots)
        assert np.isfinite(table.log_z)

    def test_dump_is_readable_from_any_module_output(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 2))
        beta, _ = models.build_beta(data, models.gaussian_init_iid(data))
        path = str(tmp_path / "beta.tsv")
        otio.write_matrix_tsv(path, beta.scaled)
        assert np.array_equal(otio.read_matrix_tsv(path), beta.scaled)


class TestImmutability:
    def test_weight_matrix_arrays_are_frozen(self):
        beta = treemath.WeightMatrix(entries=[[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            beta.log_entries[0, 1] = 0.0
        with pytest.raises(ValueError):
            beta.scaled[0, 1] = 2.0

    def test_root_weights_arrays_are_frozen(self):
        roots = treemath.RootWeights(values=[1.0, 2.0])
        with pytest.raises(ValueError):
            roots.normalized[0] = 0.9

    def test_out_tree_parent_is_frozen(self):
        tree = treemath.OutTree(root=0, parent=np.array([-1, 0]))
        with pytest.raises(ValueError):
            tree.parent[1] = -1

    def test_session_inverse_edits_do_not_leak_into_inputs(self):
        beta = treemath.WeightMatrix(entries=[[0.0, 1.0], [0.5, 0.0]])
        roots = treemath.RootWeights(values=[1.0, 1.0])
        session = treemath.IncrementalLogdet(beta, roots)
        session._commit(session._cross(0, [0.0, -1.5], [0.0, np.log(0.5)]))
        assert session.beta.log_entries[0, 1] == -1.5
        assert beta.log_entries[0, 1] == 0.0


class TestHillClimbMonotonicity:
    def test_committed_flips_never_decrease_and_track_recompute(self):
        rng = np.random.default_rng(3)
        model = models.GaussianModel(mu_c=np.zeros(2), mu_pi=np.zeros(2),
                                     sigma_c_given_pi=0.5 * np.eye(2),
                                     sigma_cc=np.eye(2), sigma_pipi=np.eye(2))
        X = rng.normal(size=(15, 2))
        labels = rng.integers(0, 2, 15)
        state = semisup.LabelInference(
            X, labels, model, semisup.LabelModel(alpha=0.85, n_classes=2),
            observed=np.zeros(15, dtype=bool))
        trace = [state.log_partition]
        commits = 0
        for sweep in range(10):
            improved = False
            for node in rng.permutation(15):
                new = 1 - state.labels[node]
                if state.flip_delta(node, int(new)) > 1e-9:
                    state.commit(node, int(new))
                    commits += 1
                    improved = True
                    trace.append(state.log_partition)
                    assert abs(state.log_partition
                               - state.recomputed_log_partition()) < 1e-8
            if not improved:
                break
        assert commits > 0
        assert all(b > a for a, b in zip(trace, trace[1:]))


class TestCliSurface:
    @pytest.mark.parametrize("command", ["fit", "eval", "sample", "semisup", "vb",
                                         "spiral", "spiral-bench", "semisup-bench",
                                         "plotdata"])
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        assert "--output" in capsys.readouterr().out

    def test_documented_flags_exist(self, capsys):
        for command, flag in [("fit", "--model-family"), ("fit", "--grad-tol"),
                              ("fit", "--max-iters"), ("spiral-bench", "--splits"),
                              ("spiral-bench", "--bandwidth-grid"),
                              ("semisup", "--alpha-grid"), ("semisup", "--restarts"),
                              ("fit", "--config"), ("fit", "--seed")]:
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            assert flag in capsys.readouterr().out


# Runs the CLI end to end in a process where importing SciPy fails.
NO_SCIPY_RUN = textwrap.dedent("""
    import json
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())
    import outtree
    from outtree import cli

    d = sys.argv[1]
    codes = []
    with open(f"{d}/cats.csv", "w") as handle:
        handle.write("a,b\\n0,1\\n1,1\\n2,0\\n0,0\\n1,2\\n2,2\\n")
    for argv in [
            ["spiral", "--rows", "40", "--seed", "1", "--output", f"{d}/train.csv"],
            ["spiral", "--rows", "10", "--seed", "2", "--output", f"{d}/test.csv"],
            ["fit", "--input", f"{d}/train.csv", "--output", f"{d}/m.model",
             "--max-iters", "3"],
            ["eval", "--input", f"{d}/train.csv", "--test", f"{d}/test.csv",
             "--model", f"{d}/m.model", "--output", f"{d}/score.tsv"],
            ["sample", "--model", f"{d}/m.model", "--rows", "15", "--seed", "3",
             "--output", f"{d}/draw.csv"],
            ["vb", "--input", f"{d}/cats.csv", "--max-rounds", "2",
             "--output", f"{d}/state.ckpt"],
            ["vb", "--input", f"{d}/cats.csv", "--max-rounds", "2",
             "--resume", f"{d}/state.ckpt", "--output", f"{d}/resumed.ckpt"]]:
        codes.append(cli.main(argv))
    print(json.dumps({"codes": codes,
                      "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
""")


class TestNumpyOnlyRuntime:
    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        src = str(Path(outtree.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p)
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().split("\n")[-1])
        assert result == {"codes": [0] * 7, "scipy": []}, done.stderr


def _bindings(modules):
    """Every module global of ``modules`` and every attribute of the classes
    they define, keyed by (module, name) and (module, class, name)."""
    out = {}
    for module in modules:
        for key, value in vars(module).items():
            out[module.__name__, key] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[module.__name__, key, attr] = member
    return out


class TestBenchTracer:
    def test_tracer_binds_the_package_and_restores_it(self, monkeypatch):
        # the benchmark's per-layer tracer wraps the package's functions by
        # name, so a traced run breaks when a name it looks up goes away
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracer

        from outtree import likelihood, sampler, vb  # noqa: F401 (the traced modules)
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None and name.split(".")[0] == "outtree"]
        before = _bindings(modules + [np.linalg])
        traced = tracer.Tracer()
        traced.install()
        try:
            during = _bindings(modules + [np.linalg])
        finally:
            traced.uninstall()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert {("outtree.treemath", "log_partition"), ("outtree.models", "build_beta"),
                ("outtree.likelihood", "build_beta"), ("numpy.linalg", "slogdet"),
                ("outtree.treemath", "IncrementalLogdet", "__init__"),
                ("outtree.semisup", "LabelInference", "screen_delta")} <= wrapped
        after = _bindings(modules + [np.linalg])
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
