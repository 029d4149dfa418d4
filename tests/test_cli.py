"""End-to-end tests for the command line interface."""

import csv
import json
import os
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from mmcl import bsgmp, datagen, solvers, storage
from mmcl.cli import main
from mmcl.errors import CONFIG_EXIT_CODE, NUMERICAL_EXIT_CODE, DegenerateData

MODEL = {"d1": 6, "d2": 5, "r": 2, "snr": 2.0, "seed": 0}


def drop_last_column(text):
    return "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def overflow_row(directory):
    """Row 66 of x.csv and xt.csv all 1e308: finite entries whose products overflow."""
    for name in ("x.csv", "xt.csv"):
        path = directory / name
        rows = path.read_text().splitlines()
        rows[66] = ",".join(["1e308"] * len(rows[66].split(",")))
        path.write_text("\n".join(rows) + "\n")


def gen_paired(tmp_path, n=40, p=0.0, seed=1, subdir="paired"):
    cfg = write_config(tmp_path, f"{subdir}.json", {
        "kind": "paired", "model": MODEL, "n": n, "p": p, "seed": seed})
    out = tmp_path / subdir
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


class TestGen:
    def test_paired_matches_direct_sampling(self, tmp_path, capsys):
        out = gen_paired(tmp_path, n=30, p=0.2, seed=3)
        assert "wrote paired dataset" in capsys.readouterr().out
        back = storage.load_dataset(out)
        model = datagen.random_model(6, 5, 2, snr=2.0, seed=0)
        want = datagen.sample_paired(model, 30, 0.2, seed=3)
        assert np.array_equal(back.x, want.x)
        assert np.array_equal(back.xt, want.xt)
        assert back.distortion == want.distortion

    def test_out_in_config_is_used(self, tmp_path):
        dest = tmp_path / "from_config"
        cfg = write_config(tmp_path, "g.json", {
            "kind": "paired", "model": MODEL, "n": 10, "p": 0.0,
            "out": str(dest)})
        assert main(["gen", "--config", cfg]) == 0
        assert (dest / "meta.json").exists()

    def test_unpaired_and_labeled_kinds(self, tmp_path):
        ucfg = write_config(tmp_path, "u.json", {
            "kind": "unpaired", "model": MODEL, "n": 20, "seed": 2})
        assert main(["gen", "--config", ucfg, "--out", str(tmp_path / "u")]) == 0
        pool = storage.load_dataset(str(tmp_path / "u"))
        assert pool.observed_edges.shape == (0, 2)

        lcfg = write_config(tmp_path, "l.json", {
            "kind": "labeled-bipartite", "model": MODEL, "n_per_cluster": 5,
            "k": 3, "p_prime": 0.1, "seed": 4})
        assert main(["gen", "--config", lcfg, "--out", str(tmp_path / "l")]) == 0
        lab = storage.load_dataset(str(tmp_path / "l"))
        assert isinstance(lab, datagen.LabeledBipartite)
        assert lab.k == 3

    @pytest.mark.parametrize("cfg_obj", [
        {"kind": "nope", "model": MODEL, "n": 5},
        {"model": MODEL, "n": 5},
        [1, 2, 3],
        {"kind": "paired", "model": {"d1": 0, "d2": 5, "r": 2}, "n": 5},
        {"kind": "paired", "model": MODEL, "n": 1},
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, cfg_obj):
        cfg = write_config(tmp_path, "bad.json", cfg_obj)
        code = main(["gen", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == CONFIG_EXIT_CODE
        assert "error" in capsys.readouterr().err

    def test_missing_out_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {
            "kind": "paired", "model": MODEL, "n": 5})
        assert main(["gen", "--config", cfg]) == CONFIG_EXIT_CODE

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == CONFIG_EXIT_CODE

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["gen", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == CONFIG_EXIT_CODE


class TestFit:
    def test_linear_matches_direct_solver(self, tmp_path, capsys):
        data = gen_paired(tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", "linear", "--data", data, "--out", str(out),
                     "--r", "2", "--rho", "1.0"]) == 0
        assert "fit linear" in capsys.readouterr().out
        want = solvers.fit_linear_closed_form(storage.load_dataset(data), 2, 1.0)
        got = storage.load_matrix(str(out / "product.csv"))
        assert np.array_equal(got, want.product)
        info = storage.load_json(str(out / "fit.json"))
        assert info["final_loss"] == want.final_loss
        assert "loss_spec" not in info

    def test_gd_records_spec_and_trace(self, tmp_path):
        data = gen_paired(tmp_path, n=20)
        out = tmp_path / "fit"
        assert main(["fit", "gd", "--data", data, "--out", str(out),
                     "--r", "2", "--phi", "log", "--psi", "exp", "--cn", "n",
                     "--tau", "0.5", "--lr", "0.05", "--max-iter", "30"]) == 0
        info = storage.load_json(str(out / "fit.json"))
        assert info["loss_spec"]["phi"] == "log"
        assert info["loss_spec"]["psi"] == "exp"
        assert info["loss_spec"]["cn"] == "n"
        assert info["iterations"] <= 30
        assert len(info["trace"]) == info["iterations"] + 1

    def test_approx_forces_exp_psi(self, tmp_path):
        data = gen_paired(tmp_path, n=20)
        out = tmp_path / "fit"
        assert main(["fit", "approx", "--data", data, "--out", str(out),
                     "--r", "2", "--tau", "0.5", "--nu", "2.0"]) == 0
        info = storage.load_json(str(out / "fit.json"))
        assert info["loss_spec"]["psi"] == "exp"
        assert info["loss_spec"]["cn"] == "n"
        assert info["loss_spec"]["nu"] == 2.0

    def test_semi_uses_pool_and_reports_edges(self, tmp_path):
        data = gen_paired(tmp_path, n=30)
        ucfg = write_config(tmp_path, "u.json", {
            "kind": "unpaired", "model": MODEL, "n": 60, "seed": 7})
        pool_dir = tmp_path / "pool"
        assert main(["gen", "--config", ucfg, "--out", str(pool_dir)]) == 0
        out = tmp_path / "fit"
        assert main(["fit", "semi", "--data", data, "--unpaired", str(pool_dir),
                     "--out", str(out), "--r", "2", "--tau", "auto"]) == 0
        info = storage.load_json(str(out / "fit.json"))
        assert info["edges_estimated"] == 60
        assert info["edge_pool_size"] >= 60
        assert isinstance(info["edge_threshold"], float)

    def test_sscl_expected_and_sampled(self, tmp_path):
        data = gen_paired(tmp_path, n=30)
        out_e = tmp_path / "fit_e"
        out_s = tmp_path / "fit_s"
        assert main(["fit", "sscl", "--data", data, "--out", str(out_e),
                     "--r", "2"]) == 0
        assert main(["fit", "sscl", "--data", data, "--out", str(out_s),
                     "--r", "2", "--mode", "sampled", "--k-draws", "50",
                     "--seed", "5"]) == 0
        ge = storage.load_matrix(str(out_e / "g1.csv"))
        gs = storage.load_matrix(str(out_s / "g1.csv"))
        assert ge.shape == gs.shape == (2, 6)

    def test_degenerate_data_exits_3(self, tmp_path, capsys):
        ds = datagen.PairedDataset(
            x=np.ones((4, 3)), xt=np.ones((4, 2)),
            observed_edges=np.stack([np.arange(4)] * 2, axis=1),
            truth_edges=np.stack([np.arange(4)] * 2, axis=1),
            distortion=0.0)
        data = tmp_path / "flat"
        storage.save_dataset(str(data), ds)
        code = main(["fit", "linear", "--data", str(data),
                     "--out", str(tmp_path / "fit"), "--r", "1"])
        assert code == NUMERICAL_EXIT_CODE
        assert "numerical error" in capsys.readouterr().err

    def test_excessive_rank_exits_2(self, tmp_path):
        data = gen_paired(tmp_path, n=10)
        assert main(["fit", "linear", "--data", data,
                     "--out", str(tmp_path / "fit"), "--r", "99"]) == CONFIG_EXIT_CODE

    def test_missing_data_directory_exits_2(self, tmp_path):
        assert main(["fit", "linear", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "fit"), "--r", "2"]) == CONFIG_EXIT_CODE


class TestBsgmp:
    def make_edges(self, tmp_path):
        rows = [(i, j) for b in range(3)
                for i in range(4 * b, 4 * b + 4)
                for j in range(4 * b, 4 * b + 4)]
        path = tmp_path / "edges.csv"
        storage.write_csv(str(path), ("i", "j"), rows)
        return str(path)

    def test_partition_three_bicliques(self, tmp_path, capsys):
        edges = self.make_edges(tmp_path)
        out = tmp_path / "part"
        assert main(["bsgmp", "--edges", edges, "--k", "3",
                     "--out", str(out)]) == 0
        assert "partitioned 48 edges" in capsys.readouterr().out
        report = storage.load_json(str(out / "report.json"))
        assert report["k"] == 3
        assert report["dropped"] == 0
        labels = storage.read_edge_csv(str(out / "kept_edges.csv"))
        assert labels.shape == (48, 2)

    def test_explicit_node_counts_allow_isolated_nodes(self, tmp_path):
        edges = self.make_edges(tmp_path)
        out = tmp_path / "part"
        assert main(["bsgmp", "--edges", edges, "--k", "3", "--n-left", "14",
                     "--n-right", "14", "--out", str(out)]) == 0
        left = (out / "labels_left.csv").read_text().strip().splitlines()
        assert len(left) - 1 == 14

    def test_empty_edge_file_exits_2(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n")
        assert main(["bsgmp", "--edges", str(path), "--k", "2",
                     "--out", str(tmp_path / "p")]) == CONFIG_EXIT_CODE

    @pytest.mark.parametrize("flag", ["--n-left", "--n-right"])
    def test_zero_node_count_exits_2(self, tmp_path, capsys, flag):
        edges = self.make_edges(tmp_path)
        assert main(["bsgmp", "--edges", edges, "--k", "3", flag, "0",
                     "--out", str(tmp_path / "p")]) == CONFIG_EXIT_CODE
        assert "at least one node per side" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_invalid_k_exits_2(self, tmp_path):
        edges = self.make_edges(tmp_path)
        assert main(["bsgmp", "--edges", edges, "--k", "1",
                     "--out", str(tmp_path / "p")]) == CONFIG_EXIT_CODE
        assert main(["bsgmp", "--edges", edges, "--k", "99",
                     "--out", str(tmp_path / "p")]) == CONFIG_EXIT_CODE


class TestExp:
    EXP_CONFIG = {
        "experiment": "gradcheck",
        "model": {"d1": 4, "d2": 3, "r": 2},
        "seeds": [0],
        "sweep": {"n_grid": [4]},
        "options": {"losses": ["linear", "clip"]},
    }

    def test_gradcheck_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", self.EXP_CONFIG)
        out = tmp_path / "exp"
        assert main(["exp", "gradcheck", "--config", cfg, "--out", str(out)]) == 0
        assert "2 trials" in capsys.readouterr().out
        assert sorted(os.listdir(out)) == ["manifest.json", "results.csv", "summary.csv"]
        manifest = storage.load_json(str(out / "manifest.json"))
        assert manifest["rows"] == 2
        raw = open(cfg, "rb").read()
        assert manifest["inputs_blob_sha1"] == storage.blob_sha1(raw)

    def test_config_name_must_match_requested(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json",
                           dict(self.EXP_CONFIG, experiment="distortion"))
        code = main(["exp", "gradcheck", "--config", cfg,
                     "--out", str(tmp_path / "exp")])
        assert code == CONFIG_EXIT_CODE
        assert "distortion" in capsys.readouterr().err

    def test_name_fills_missing_experiment_field(self, tmp_path):
        obj = {k: v for k, v in self.EXP_CONFIG.items() if k != "experiment"}
        cfg = write_config(tmp_path, "e.json", obj)
        assert main(["exp", "gradcheck", "--config", cfg,
                     "--out", str(tmp_path / "exp")]) == 0

    def test_unknown_experiment_name_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", self.EXP_CONFIG)
        assert main(["exp", "bogus", "--config", cfg,
                     "--out", str(tmp_path / "exp")]) == CONFIG_EXIT_CODE


class TestMalformedInputs:
    """Each malformed input exits 2 or 3 with one line on stderr, never a traceback."""

    BSGMP_OPTIONS = {"k_true": 2, "n_per_cluster": 4, "n_test_per_cluster": 2,
                     "restarts": 1, "fit_rank": 1}

    def run(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        return code, err

    def exp(self, tmp_path, name, sweep, options):
        cfg = write_config(tmp_path, "e.json", {
            "model": {"d1": 4, "d2": 3, "r": 2, "seed": 0}, "seeds": [0, 1],
            "sweep": sweep, "options": options})
        return ["exp", name, "--config", cfg, "--out", str(tmp_path / "exp")]

    @pytest.mark.parametrize("name,text", [
        ("x.csv", "1.0,2.0\n3.0\n"), ("x.csv", "1.0,a\n"), ("xt.csv", "nan,1.0\n"),
        ("edges.csv", "i,j,is_truth\n0,0\n"), ("edges.csv", "i,j,is_truth\n0,z,1\n")])
    def test_malformed_dataset_file_exits_2(self, tmp_path, capsys, name, text):
        data = gen_paired(tmp_path, n=10)
        with open(os.path.join(data, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = self.run(capsys, ["fit", "linear", "--data", data,
                                      "--out", str(tmp_path / "fit"), "--r", "1"])
        assert code == CONFIG_EXIT_CODE
        assert os.path.join(data, name) in err

    @pytest.mark.parametrize("text", ["i,j\n0,1\n1,a\n", "i,j\n0,1\n1\n"])
    def test_malformed_edge_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        code, err = self.run(capsys, ["bsgmp", "--edges", str(path), "--k", "2",
                                      "--out", str(tmp_path / "p")])
        assert code == CONFIG_EXIT_CODE
        assert f"{path} line 3" in err

    def test_bad_integer_option_exits_2(self, tmp_path, capsys):
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]},
                        dict(self.BSGMP_OPTIONS, restarts="x"))
        code, err = self.run(capsys, argv)
        assert code == CONFIG_EXIT_CODE
        assert "options.restarts" in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("options,field", [
        ({"rho": "x"}, "rho"), ({"within_scale": float("nan")}, "within_scale")])
    def test_bad_float_option_exits_2(self, tmp_path, capsys, options, field):
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]},
                        dict(self.BSGMP_OPTIONS, **options))
        code, err = self.run(capsys, argv)
        assert code == CONFIG_EXIT_CODE
        assert f"options.{field}" in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("kind,fields,field", [
        ("paired", {"n": "x", "p": 0.0}, "n"),
        ("paired", {"n": 10.0, "p": 0.0}, "n"),
        ("paired", {"p": 0.0}, "n"),
        ("paired", {"n": 10, "p": "0.2"}, "p"),
        ("paired", {"n": 10, "p": float("nan")}, "p"),
        ("paired", {"n": 10, "p": 0.0, "seed": "1"}, "seed"),
        ("unpaired", {"n": True}, "n"),
        ("labeled-bipartite", {"n_per_cluster": "5", "k": 2}, "n_per_cluster"),
        ("labeled-bipartite", {"n_per_cluster": 5, "k": 1}, "k"),
        ("labeled-bipartite", {"n_per_cluster": 5, "k": 2, "p_prime": 2}, "p_prime"),
        ("labeled-bipartite", {"n_per_cluster": 5, "k": 2, "within_scale": "big"},
         "within_scale"),
        ("paired", {"n": 10, "model": "m"}, "model"),
        ("paired", {"n": 10, "model": dict(MODEL, r=True)}, "model.r"),
    ])
    def test_bad_gen_field_exits_2(self, tmp_path, capsys, kind, fields, field):
        cfg = write_config(tmp_path, "g.json", dict({"kind": kind, "model": MODEL}, **fields))
        out = tmp_path / "data"
        code, err = self.run(capsys, ["gen", "--config", cfg, "--out", str(out)])
        assert code == CONFIG_EXIT_CODE
        assert err.startswith(f"error: {field}:")
        assert not out.exists()

    def test_unknown_option_exits_2(self, tmp_path, capsys):
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": [2], "p_prime_grid": [0.0]},
                        {"k_true": 2, "n_per_cluster": 4, "n_test_per_cluster": 2,
                         "restart": 1, "fit_rank": 1})
        code, err = self.run(capsys, argv)
        assert code == CONFIG_EXIT_CODE
        assert "restart" in err and "restarts" not in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--tau", "x", "--tau"), ("--tau", "inf", "tau"), ("--nu", "inf", "nu"),
        ("--rho", "nan", "rho"), ("--epsilon", "inf", "epsilon")])
    def test_bad_semi_argument_exits_2(self, tmp_path, capsys, flag, value, field):
        data = gen_paired(tmp_path, n=10)
        pool = gen_paired(tmp_path, n=10, subdir="pool")
        code, err = self.run(capsys, ["fit", "semi", "--data", data, "--unpaired", pool,
                                      "--out", str(tmp_path / "fit"), "--r", "1",
                                      flag, value])
        assert code == CONFIG_EXIT_CODE
        assert field in err
        assert not (tmp_path / "fit").exists()

    def test_overflowing_semi_tau_exits_3(self, tmp_path, capsys):
        # sims / tau overflows in the unpaired step: one line naming tau,
        # and no numpy warning before it.
        data = gen_paired(tmp_path, n=10)
        pool = gen_paired(tmp_path, n=10, subdir="pool")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(capsys, ["fit", "semi", "--data", data, "--unpaired", pool,
                                          "--out", str(tmp_path / "fit"), "--r", "1",
                                          "--tau", "1e-320"])
        assert code == NUMERICAL_EXIT_CODE
        assert "tau" in err

    def test_overflowing_pool_product_exits_2(self, tmp_path, capsys):
        # Finite pool entries whose scores overflow: the factored pool's scan
        # reports them on one line, and no numpy warning comes before it.
        data = gen_paired(tmp_path, n=10)
        pool = gen_paired(tmp_path, n=70, subdir="pool")
        overflow_row(tmp_path / "pool")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(capsys, ["fit", "semi", "--data", data, "--unpaired", pool,
                                          "--out", str(tmp_path / "fit"), "--r", "1"])
        assert code == CONFIG_EXIT_CODE
        assert err == "error: sims contains non-finite entries\n"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("fit", [["linear"], ["gd"], ["gd", "--max-iter", "0"],
                                     ["approx"], ["sscl"], ["semi", "--unpaired", "pool"]],
                             ids=["linear", "gd", "gd-no-step", "approx", "sscl", "semi"])
    def test_overflowing_paired_set_exits_3(self, tmp_path, capsys, fit):
        # Finite paired entries whose products overflow: one line naming the
        # stage that overflowed, and no numpy warning before it.
        data = gen_paired(tmp_path, n=70)
        pool = gen_paired(tmp_path, n=70, subdir="pool")
        overflow_row(tmp_path / "paired")
        fit = [pool if arg == "pool" else arg for arg in fit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(capsys, ["fit"] + fit + ["--data", data, "--out",
                                                         str(tmp_path / "fit"), "--r", "1"])
        assert code == NUMERICAL_EXIT_CODE
        assert err.startswith("numerical error: ") and "not finite" in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("fit", [
        ["gd", "--phi", "log1p", "--psi", "exp", "--epsilon", "0", "--cn", "n"],
        ["semi", "--unpaired", "pool", "--init", "infonce"]])
    def test_overflowing_gd_tau_exits_3(self, tmp_path, capsys, fit):
        # sims / tau overflows in the descent: one line, no numpy warning.
        data = gen_paired(tmp_path, n=10)
        pool = gen_paired(tmp_path, n=10, subdir="pool")
        fit = [pool if arg == "pool" else arg for arg in fit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(capsys, ["fit"] + fit + ["--data", data, "--out",
                                                         str(tmp_path / "fit"), "--r", "1",
                                                         "--tau", "1e-320"])
        assert code == NUMERICAL_EXIT_CODE
        assert "gradient not finite at iteration 0" in err

    def test_infinite_tau_for_gd_exits_2(self, tmp_path, capsys):
        data = gen_paired(tmp_path, n=10)
        code, err = self.run(capsys, ["fit", "gd", "--data", data, "--out",
                                      str(tmp_path / "fit"), "--r", "1", "--tau", "inf",
                                      "--phi", "log", "--psi", "exp", "--cn", "n"])
        assert code == CONFIG_EXIT_CODE
        assert err.startswith("error: tau")

    @pytest.mark.parametrize("extra", [["--max-rounds", "3"], ["--validation", "pool"]])
    def test_removed_semi_flags_exit_2(self, tmp_path, capsys, extra):
        data = gen_paired(tmp_path, n=10)
        pool = gen_paired(tmp_path, n=10, subdir="pool")
        extra = [pool if arg == "pool" else arg for arg in extra]
        code, err = self.run(capsys, ["fit", "semi", "--data", data, "--unpaired", pool,
                                      "--out", str(tmp_path / "fit"), "--r", "1"] + extra)
        assert code == CONFIG_EXIT_CODE
        assert extra[0] in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("argv", [
        ["bsgmp", "--edges", "EDGES", "--k", "2", "--seed", "-1"],
        ["fit", "gd", "--data", "DATA", "--r", "1", "--seed", "-3"],
        ["fit", "sscl", "--data", "DATA", "--r", "1", "--mode", "sampled", "--seed", "-1"],
        ["fit", "sscl", "--data", "DATA", "--r", "1", "--mode", "sampled", "--seed", "x"],
    ])
    def test_bad_seed_exits_2(self, tmp_path, capsys, argv):
        data = gen_paired(tmp_path, n=10)
        edges = tmp_path / "e.csv"
        edges.write_text("i,j\n0,0\n1,1\n")
        argv = [data if a == "DATA" else str(edges) if a == "EDGES" else a for a in argv]
        code, err = self.run(capsys, argv + ["--out", str(tmp_path / "out")])
        assert code == CONFIG_EXIT_CODE
        assert "--seed" in err and "nonnegative integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--lr", "inf"), ("--lr", "nan")])
    def test_bad_step_option_for_gd_exits_2(self, tmp_path, capsys, flag, value):
        # Without the check these ran every iteration and exited 0 with a
        # finite loss, or failed with a message about g1.
        data = gen_paired(tmp_path, n=10)
        code, err = self.run(capsys, ["fit", "gd", "--data", data, "--out",
                                      str(tmp_path / "fit"), "--r", "1", "--max-iter", "3",
                                      f"{flag}={value}"])
        assert code == CONFIG_EXIT_CODE
        assert err.startswith(f"error: {flag[2:]} must be nonnegative and finite")

    def test_zero_tol_is_valid_for_gd(self, tmp_path):
        data = gen_paired(tmp_path, n=10)
        assert main(["fit", "gd", "--data", data, "--out", str(tmp_path / "fit"),
                     "--r", "1", "--max-iter", "3", "--tol", "0"]) == 0

    @pytest.mark.parametrize("kind,file,edit,fragment", [
        ("paired", "meta.json", lambda text: "[]", "must be a JSON object"),
        ("paired", "meta.json", lambda text: text.replace('"paired"', '"bogus"'), "kind"),
        ("paired", "meta.json", lambda text: text.replace('"p_n": 0.0', '"p_n": "x"'), "p_n"),
        ("labeled-bipartite", "meta.json",
         lambda text: text.replace('"k": 2,', ''), "k: must be an integer"),
        ("labeled-bipartite", "meta.json",
         lambda text: text.replace('"k": 2', '"k": "x"'), "k: must be an integer"),
        ("paired", "edges.csv", lambda text: text + "0,99,1\n", "line 32: value out of range"),
        ("labeled-bipartite", "labels_left.csv", lambda text: "label\n0\n1\n",
         "2 labels for 30 rows"),
        ("paired", "x.csv", lambda text: text.partition("\n")[2],
         "29 x 6 matrix, expected 30 x 6"),
        ("paired", "xt.csv", lambda text: text.partition("\n")[2],
         "29 x 5 matrix, expected 30 x 5"),
        ("paired", "x.csv", drop_last_column, "30 x 5 matrix, expected 30 x 6"),
        ("labeled-bipartite", "xt.csv", drop_last_column, "30 x 4 matrix, expected any x 5"),
        ("paired", "meta.json", lambda text: text.replace('"n": 30,', ''),
         "n: must be an integer"),
        ("paired", "meta.json", lambda text: text.replace('"d1": 6', '"d1": "6"'),
         "d1: must be an integer"),
        ("paired", "meta.json", lambda text: text.replace('"d2": 5', '"d2": 5.5'),
         "d2: must be an integer"),
    ])
    def test_inconsistent_dataset_exits_2(self, tmp_path, capsys, kind, file, edit, fragment):
        fields = ({"n": 30, "p": 0.0} if kind == "paired"
                  else {"n_per_cluster": 15, "k": 2, "p_prime": 0.1})
        cfg = write_config(tmp_path, "g.json", dict({"kind": kind, "model": MODEL}, **fields))
        data = tmp_path / "data"
        assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        path = data / file
        path.write_text(edit(path.read_text()))
        code, err = self.run(capsys, ["fit", "linear", "--data", str(data),
                                      "--out", str(tmp_path / "fit"), "--r", "1"])
        assert code == CONFIG_EXIT_CODE
        assert f"{path}" in err and fragment in err
        assert not (tmp_path / "fit").exists()

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        monkeypatch.setattr(bsgmp, "partition", exhausted)
        edges = tmp_path / "e.csv"
        edges.write_text("i,j\n0,0\n1,1\n")
        code, err = self.run(capsys, ["bsgmp", "--edges", str(edges), "--k", "2",
                                      "--out", str(tmp_path / "p")])
        assert code == NUMERICAL_EXIT_CODE
        assert err.startswith("out of memory: Unable to allocate")

    def test_bad_init_exits_2(self, tmp_path, capsys):
        argv = self.exp(tmp_path, "unpaired", {"n_grid": [4], "ratio_grid": [1]},
                        {"init": "bogus"})
        code, err = self.run(capsys, argv)
        assert code == CONFIG_EXIT_CODE
        assert "options.init" in err

    def test_all_trials_failing_on_configuration_exits_2(self, tmp_path, capsys):
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": [99], "p_prime_grid": [0.0]},
                        self.BSGMP_OPTIONS)
        code, err = self.run(capsys, argv)
        assert code == CONFIG_EXIT_CODE
        assert "2 trials (2 failed)" in err and "InvalidK" in err
        assert capsys.readouterr().out == ""
        assert (tmp_path / "exp" / "results.csv").exists()

    def test_all_trials_failing_numerically_exits_3(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateData("all samples identical")
        monkeypatch.setattr(solvers, "fit_linear_closed_form", degenerate)
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": ["none", 99], "p_prime_grid": [0.0]},
                        self.BSGMP_OPTIONS)
        code, err = self.run(capsys, argv)
        assert code == NUMERICAL_EXIT_CODE
        assert "4 trials (4 failed)" in err
        assert "DegenerateData" in err and "InvalidK" in err

    def test_partly_failing_sweep_exits_0(self, tmp_path, capsys):
        argv = self.exp(tmp_path, "bsgmp", {"k_grid": ["none", 99], "p_prime_grid": [0.0]},
                        self.BSGMP_OPTIONS)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "4 trials (2 failed)" in captured.out
        assert captured.err == ""


class TestArgumentParsing:
    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_fit_requires_a_method(self):
        assert main(["fit"]) == 2

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["fit"], ["bsgmp", "--k", "x"],
                                      ["fit", "linear", "--data", "d", "--out", "o"]])
    def test_usage_error_is_one_line(self, capsys, argv):
        assert main(argv) == CONFIG_EXIT_CODE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: mmcl")

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out


class TestInstalledEntryPoint:
    @pytest.mark.skipif(
        shutil.which("mmcl") is None,
        reason="no `mmcl` console script on PATH; install it with "
               "`pip install -e . --no-build-isolation`")
    def test_console_script_round_trip(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "kind": "paired", "model": MODEL, "n": 20, "p": 0.0, "seed": 1}))
        data = tmp_path / "data"
        fit = tmp_path / "fit"
        proc = subprocess.run(
            ["mmcl", "gen", "--config", str(cfg), "--out", str(data)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            ["mmcl", "fit", "linear", "--data", str(data), "--out", str(fit),
             "--r", "2"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (fit / "product.csv").exists()

    def test_module_invocation_matches_console_script(self, tmp_path):
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "mmcl", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen" in proc.stdout


class TestRuntimeDependencies:
    def test_importing_every_module_loads_no_scipy(self):
        import sys
        import mmcl
        src = os.path.dirname(os.path.dirname(os.path.abspath(mmcl.__file__)))
        code = (
            "import importlib, pkgutil, sys, mmcl\n"
            "for mod in pkgutil.walk_packages(mmcl.__path__, 'mmcl.'):\n"
            "    if mod.name != 'mmcl.__main__':\n"
            "        importlib.import_module(mod.name)\n"
            "print(len([n for n in sys.modules if n.startswith('mmcl.')]))\n"
            "print(','.join(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded, scipy_modules = proc.stdout.split("\n")[:2]
        assert int(loaded) >= 9  # every module but the package and __main__
        assert scipy_modules == ""

    def test_declared_runtime_dependencies_are_numpy_alone(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert [dep.split(">")[0].split("=")[0].strip()
                for dep in project["dependencies"]] == ["numpy"]


def strip_wall_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    wt = rows[0].index("wall_time")
    return [[c for i, c in enumerate(row) if i != wt] for row in rows]


class TestRerunDeterminism:
    def test_exp_reruns_are_identical_except_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", TestExp.EXP_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["exp", "gradcheck", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["exp", "gradcheck", "--config", cfg, "--out", str(out_b)]) == 0
        assert strip_wall_time(out_a / "results.csv") == \
            strip_wall_time(out_b / "results.csv")
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == \
            (out_b / "manifest.json").read_bytes()

    def test_gen_fit_rerun_byte_identical(self, tmp_path):
        data_a = gen_paired(tmp_path, subdir="da", seed=6)
        data_b = gen_paired(tmp_path, subdir="db", seed=6)
        for name in ("x.csv", "xt.csv", "edges.csv", "meta.json"):
            assert (tmp_path / "da" / name).read_bytes() == \
                (tmp_path / "db" / name).read_bytes()
        fit_a = tmp_path / "fa"
        fit_b = tmp_path / "fb"
        for data, fit in ((data_a, fit_a), (data_b, fit_b)):
            assert main(["fit", "gd", "--data", data, "--out", str(fit),
                         "--r", "2", "--phi", "log", "--psi", "exp",
                         "--cn", "n", "--tau", "0.5", "--max-iter", "20"]) == 0
        for name in ("product.csv", "g1.csv", "g2.csv", "fit.json"):
            assert (fit_a / name).read_bytes() == (fit_b / name).read_bytes()
