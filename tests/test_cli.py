"""Tests for the command-line interface."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import adaptlink as al
from adaptlink import io
from adaptlink.cli import main

import _expected as exp
import _oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCluster:
    def test_para_trace(self, capsys):
        code, out, err = run_cli(capsys, "cluster", "--fixture", "para")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["format"] == "adaptlink-trace"
        assert len(payload["trace"]) == 10
        assert payload["trace"][0]["cutoff_display"] == "1.05"
        got = {frozenset(g) for g in payload["trace"][0]["groups"]}
        assert got == exp.as_group_sets(exp.PARA_GROUPS[0])

    def test_meta_trace_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "meta")
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["method"] == "adaptive"
        assert meta["sd_mode"] == "sample"
        assert meta["columns"] == ["pi_m", "sigma_m"]
        assert meta["dataset_sha256"] == io.load_fixture("meta").content_hash()

    def test_stepwise_average(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "meta", "--method", "average")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["trace"]) == 24
        assert payload["metadata"]["method"] == "average"

    def test_input_file(self, capsys, tmp_path):
        table = tmp_path / "tiny.csv"
        table.write_text("name,x,y\na,0,0\nb,1,0\nc,5,5\nd,6,5\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "cluster", "--input", str(table))
        assert code == 0
        assert json.loads(out)["metadata"]["columns"] == ["x", "y"]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys, "cluster", "--fixture", "para", "--output", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text(encoding="utf-8"))["version"] == 1

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "cluster", "--fixture", "para")
        _, second, _ = run_cli(capsys, "cluster", "--fixture", "para")
        assert first == second

    def test_no_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "para", "--no-normalize")
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["normalized"] is False
        assert meta["restandardize"] is False

    def test_population_sd(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "para", "--sd", "population")
        assert code == 0
        assert json.loads(out)["metadata"]["sd_mode"] == "population"

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "meta", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph dendrogram {")

    def test_tree_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "meta", "--format", "tree-text")
        assert code == 0
        assert out.splitlines()[0] == "[depth 7, cutoff 2.00]"

    def test_para_tree_text(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--fixture", "para", "--format", "tree-text")
        assert code == 0
        assert out.splitlines()[0] == "[depth 10, cutoff 2.00]"

    def test_threshold_with_stepwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "cluster", "--fixture", "para", "--method", "single", "--threshold", "0.5"
        )
        assert code == 0
        assert 0 < len(json.loads(out)["trace"]) < 24


# Flags that later calls must not inherit: a format, a stepwise method with
# a threshold, raw values with the population s.d., an output file; then
# errors, whose usage lines come from the same parser.
SUCCESSIVE = (
    ("cluster", "--fixture", "para", "--format", "dot"),
    ("cluster", "--fixture", "meta", "--method", "complete", "--threshold", "1.5",
     "--format", "tree-text"),
    ("compare", "--fixture", "meta", "--method", "single", "--output", "{out}"),
    ("cluster", "--fixture", "para", "--no-normalize", "--sd", "population"),
    ("compare", "--fixture", "para"),
    ("cluster", "--fixture", "para", "--threshold", "1.0"),
    ("compare", "--fixture", "para", "--format", "dot"),
    ("cluster", "--fixture", "meta", "--output", "{out}"),
)


class TestSuccessiveCalls:
    def test_same_bytes_as_fresh_processes(self, capsys, tmp_path):
        fresh = []
        for k, argv in enumerate(SUCCESSIVE):
            out = tmp_path / f"fresh{k}.txt"
            cmd = [sys.executable, "-m", "adaptlink.cli", *(a.format(out=out) for a in argv)]
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            fresh.append((proc, out))
        for k, (argv, (proc, fresh_out)) in enumerate(zip(SUCCESSIVE, fresh)):
            out = tmp_path / f"same{k}.txt"
            code, stdout, stderr = run_cli(capsys, *(a.format(out=out) for a in argv))
            want_out, want_err = proc.communicate()
            assert (code, stdout.encode(), stderr.encode()) == (proc.returncode, want_out, want_err)
            assert out.exists() == fresh_out.exists()
            if out.exists():
                assert out.read_bytes() == fresh_out.read_bytes()


class TestCompare:
    def test_para_report(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--fixture", "para")
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == "adaptive: 10 levels, average-linkage: 24 steps"

    def test_meta_single(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--fixture", "meta", "--method", "single")
        assert code == 0
        assert out.splitlines()[0] == "adaptive: 7 levels, single-linkage: 24 steps"


class TestDeepTree:
    """Single linkage on ``_oracle.chain``: a tree 1199 merges deep."""

    N = 1200

    @pytest.fixture
    def chain(self, tmp_path):
        table = tmp_path / "chain.csv"
        table.write_text(al.format_table(_oracle.chain(self.N)), encoding="utf-8")
        return str(table)

    def test_dot(self, capsys, chain):
        code, out, err = run_cli(
            capsys, "cluster", "--method", "single", "--format", "dot", "--input", chain
        )
        assert (code, err) == (0, "")
        assert sum(" -> " in line for line in out.splitlines()) == 2 * (self.N - 1)

    def test_tree_text(self, capsys, chain):
        code, out, err = run_cli(
            capsys, "cluster", "--method", "single", "--format", "tree-text", "--input", chain
        )
        assert (code, err) == (0, "")
        indents = [len(line) - len(line.lstrip(" ")) for line in out.splitlines()]
        assert max(indents) == 2 * (self.N - 1)

    def test_compare(self, capsys, chain):
        code, out, err = run_cli(capsys, "compare", "--method", "single", "--input", chain)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith(f"single-linkage: {self.N - 1} steps")
        assert out.splitlines()[1].endswith("single 2")


class TestErrors:
    def test_missing_input_file(self, capsys):
        code, out, err = run_cli(capsys, "cluster", "--input", "/nonexistent/table.csv")
        assert code == 1
        assert out == ""
        assert "/nonexistent/table.csv" in err

    def test_non_utf8_input(self, capsys, tmp_path):
        latin = tmp_path / "latin.csv"
        latin.write_bytes("name,x\ncaf\u00e9,1\nb,2\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "cluster", "--input", str(latin))
        assert (code, out) == (1, "")
        assert err == f"adaptlink: error: {latin}: not UTF-8 text (invalid continuation byte)\n"

    def test_malformed_table(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,x\na,oops\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(bad))
        assert code == 1
        assert "row 2" in err

    def test_constant_column(self, capsys, tmp_path):
        bad = tmp_path / "flat.csv"
        bad.write_text("name,x,y\na,1,7\nb,2,7\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "cluster", "--input", str(bad))
        assert code == 1
        assert "y" in err

    # A warning raised as an error would end the run with exit code 2.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exp", ["e-200", "e-170"])
    def test_underflowing_sd(self, capsys, tmp_path, exp):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text(f"name,x,y\na,1,1{exp}\nb,2,2{exp}\nc,4,3{exp}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(tiny))
        assert code == 1
        assert out == ""
        assert err == "adaptlink: error: column 'y' (index 1) has zero variance\n"

    # A warning raised as an error would end the run with exit code 2.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags, message",
        [((), "overflows double precision when standardized"),
         (("--no-normalize",), "distances overflow double precision")],
    )
    def test_overflowing_values(self, capsys, tmp_path, flags, message):
        big = tmp_path / "big.csv"
        big.write_text("name,x,y\na,1e308,0\nb,-1e308,1\nc,0,2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(big), *flags)
        assert code == 1
        assert out == ""
        assert message in err
        assert err.startswith("adaptlink: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    # The mean of two rows at 1.7e308 overflows to inf in the raw frame.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_last_merge(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("name,x,y\na,1.7e308,0\nb,1.7e308,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(big), "--no-normalize")
        assert (code, err) == (0, "")
        assert json.loads(out)["trace"][0]["groups"] == [["a", "b"]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_merge_fails_at_the_next_level(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("name,x,y\na,1.7e308,0\nb,1.7e308,1\nc,1.7e308,3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(big), "--no-normalize")
        assert (code, out) == (1, "")
        assert err.startswith("adaptlink: error: ") and "distances overflow" in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("table", [
        "name,x\na,1.7e308\nb,1.7e308\nc,1.6e308\nd,1.6e308\n",
        # Copies merge at level 1 to overflowing means; level 2 fails.
        "name,x,y\na,1.7e308,0\nb,1.7e308,0\nc,1.7e308,1\nd,1.7e308,1\n",
    ])
    def test_overflowing_copies(self, capsys, tmp_path, table):
        big = tmp_path / "big.csv"
        big.write_text(table, encoding="utf-8")
        code, out, err = run_cli(capsys, "cluster", "--input", str(big), "--no-normalize")
        assert (code, out) == (1, "")
        assert err == (
            "adaptlink: error: pairwise distances overflow double precision; "
            "rescale the descriptors\n"
        )

    def test_nan_threshold(self, capsys):
        code, out, err = run_cli(
            capsys, "cluster", "--fixture", "para", "--method", "average",
            "--threshold", "nan",
        )
        assert code == 1
        assert out == ""
        assert "NaN" in err

    # "=" keeps argparse from reading "-inf" as a flag; 1e400 parses as inf.
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
    def test_infinite_threshold(self, capsys, value):
        code, out, err = run_cli(
            capsys, "cluster", "--fixture", "para", "--method", "average",
            f"--threshold={value}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("adaptlink: error: stop threshold must be finite")
        assert err.count("\n") == 1

    def test_single_row_table(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("name,x\na,1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "cluster", "--input", str(one))
        assert code == 1
        assert err != ""

    def test_threshold_with_adaptive(self, capsys):
        code, _, err = run_cli(
            capsys, "cluster", "--fixture", "para", "--method", "adaptive", "--threshold", "1.0"
        )
        assert code == 1
        assert "threshold" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "cluster", "--fixture", "para", "--bogus")
        assert code == 1
        assert err != ""

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "cluster")
        assert code == 1
        assert err != ""

    def test_both_sources_rejected(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("name,x\na,1\nb,2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "cluster", "--fixture", "para", "--input", str(table)
        )
        assert code == 1

    def test_bad_fixture_name(self, capsys):
        code, _, err = run_cli(capsys, "cluster", "--fixture", "ortho")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_internal_error_exits_2(self, capsys, monkeypatch):
        import adaptlink.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli_mod, "build_dendrogram", boom)
        code, out, err = run_cli(capsys, "cluster", "--fixture", "para")
        assert code == 2
        assert "internal error" in err


    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        import adaptlink.core as core_mod

        def no_room(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr(core_mod._kernels, "pairwise_condensed", no_room)
        code, out, err = run_cli(capsys, "cluster", "--fixture", "para")
        assert code == 1
        assert out == ""
        assert err.startswith("adaptlink: error: out of memory")
        assert "O(n^2)" in err


# Builds a 65 536-point table, caps its own address space 1 GiB above what
# it maps already, then runs the engine and the CLI on the table.
CAPPED_RUN = """
import resource, sys
import numpy as np
import adaptlink as al
from adaptlink.cli import main

n, path = 1 << 16, sys.argv[1]
data = al.Dataset([f"p{i}" for i in range(n)], np.arange(n, dtype=float)[:, None], ["x"])
with open(path, "w", encoding="utf-8") as fh:
    fh.write(al.format_table(data))
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + (1 << 30), hard))
try:
    al.build_dendrogram(al.normalize(data))
except al.ClusteringError as e:
    print(e)
sys.exit(main(["cluster", "--input", path]))
"""


class TestTooManyPoints:
    def test_refused_before_allocating(self, tmp_path):
        # The condensed vector alone would take 17 GB, far beyond the cap,
        # so a run that allocated it would fail with MemoryError instead.
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_RUN, str(tmp_path / "big.csv")],
            capture_output=True,
            text=True,
        )
        refusal = "the adaptive engine takes fewer than 65536 points, got n=65536"
        assert proc.stdout == refusal + "\n"
        assert proc.returncode == 1
        assert proc.stderr == f"adaptlink: error: {refusal}\n"


HELP = Path(__file__).parent / "help"


class TestHelp:
    # Recorded from the parser that spelled every subcommand's flags out.
    @pytest.mark.parametrize("command", ["", "cluster", "compare"])
    def test_help_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, *([command] if command else []), "--help")
        assert code == 0
        assert out == (HELP / f"{command or 'adaptlink'}.txt").read_text(encoding="utf-8")


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adaptlink.cli", "compare", "--fixture", "para"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "adaptive: 10 levels, average-linkage: 24 steps"


# numpy is the one runtime dependency: with any scipy import made to fail,
# both subcommands still run.
NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None
from adaptlink.cli import main
codes = [main(["cluster", "--fixture", "meta", "--format", "trace"]),
         main(["compare", "--fixture", "para", "--method", "average"])]
sys.exit(any(codes))
"""


class TestNumpyOnly:
    def test_runs_with_scipy_blocked(self):
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert '"format": "adaptlink-trace"' in proc.stdout
        assert "adaptive: 10 levels, average-linkage: 24 steps\n" in proc.stdout
