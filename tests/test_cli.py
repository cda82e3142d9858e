"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.core import BLogEngine
from repro.machine import MachineConfig
from repro.weights.persist import load_store
from repro.workloads import family_program


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestOneShotQueries:
    def test_demo_blog_query(self):
        code, out = run_cli("--demo", "--query", "gf(sam, G)")
        assert code == 0
        assert "G = den" in out
        assert "G = doug" in out
        assert "expansions" in out

    def test_demo_prolog_query(self):
        code, out = run_cli("--demo", "--engine", "prolog", "--query", "gf(sam, G)")
        assert code == 0
        assert out.index("G = den") < out.index("G = doug")
        assert "inferences" in out

    def test_demo_machine_query(self):
        code, out = run_cli(
            "--demo", "--engine", "machine", "--query", "gf(sam, G)",
            "--processors", "2",
        )
        assert code == 0
        assert "makespan" in out
        assert "G = den" in out

    def test_failed_query_exit_code(self):
        code, out = run_cli("--demo", "--query", "gf(john, G)")
        assert code == 1
        assert "false." in out

    def test_max_solutions(self):
        code, out = run_cli("--demo", "--query", "gf(sam, G)", "--max-solutions", "1")
        assert code == 0
        assert out.count("G = ") == 1

    def test_tree_rendering(self):
        code, out = run_cli("--demo", "--query", "gf(sam, G)", "--tree")
        assert "[SOLUTION]" in out

    def test_syntax_error(self):
        code, out = run_cli("--demo", "--query", "gf(sam,")
        assert code == 2
        assert "syntax error" in out


class TestProgramLoading:
    def test_source_file(self, tmp_path):
        src = tmp_path / "prog.pl"
        src.write_text("hello(world).\n")
        code, out = run_cli("--source", str(src), "--query", "hello(X)")
        assert code == 0
        assert "X = world" in out

    def test_listing(self):
        code, out = run_cli("--demo", "--listing")
        assert code == 0
        assert "gf(X, Z) :- f(X, Y), f(Y, Z)." in out

    def test_no_program_usage_error(self):
        code, out = run_cli("--query", "x(Y)")
        assert code == 2
        assert "error:" in out


class TestNrev:
    def test_nrev_benchmark(self):
        code, out = run_cli("--nrev", "10")
        assert code == 0
        assert "kLIPS" in out
        assert "reversed correctly: True" in out


class TestRepl:
    def test_repl_session(self, monkeypatch):
        lines = iter(["gf(sam, G)", ":store", ":listing", "bogus syntax((", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code, out = run_cli("--demo")
        assert code == 0
        assert "G = den" in out
        assert "WeightStore" in out
        assert "gf(X, Z)" in out
        assert "syntax error" in out

    def test_repl_eof_exits(self, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        code, out = run_cli("--demo")
        assert code == 0


class TestStorePersistence:
    def test_save_then_load_store(self, tmp_path):
        store = tmp_path / "w.json"
        code, _ = run_cli(
            "--demo", "--query", "gf(sam, G)", "--save-store", str(store)
        )
        assert code == 0
        assert store.exists()
        # a warm run loads it and reaches the first answer faster
        code2, out2 = run_cli(
            "--demo", "--query", "gf(sam, G)", "--max-solutions", "1",
            "--load-store", str(store),
        )
        assert code2 == 0
        code3, out3 = run_cli(
            "--demo", "--query", "gf(sam, G)", "--max-solutions", "1"
        )
        warm = int(out2.split("(")[1].split()[0])
        cold = int(out3.split("(")[1].split()[0])
        assert warm <= cold

    @pytest.mark.parametrize("engine", ["blog", "machine"])
    def test_a_missing_or_corrupt_store_is_a_usage_error(self, tmp_path, engine):
        missing = tmp_path / "missing.json"
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"format": "blog-weights-v1", "n": 16')
        for path in (missing, corrupt):
            code, out = run_cli(
                "--demo", "--engine", engine, "--query", "gf(sam, G)",
                "--load-store", str(path),
            )
            assert code == 2
            assert out.startswith("error: ") and out.count("\n") == 1
            assert str(path) in out

    def test_the_shell_refuses_a_corrupt_store(self, tmp_path, monkeypatch):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("not json")
        monkeypatch.setattr("builtins.input", lambda prompt="": ":quit")
        code, out = run_cli("--demo", "--load-store", str(corrupt))
        assert code == 2
        assert out.startswith("error: weight store ") and out.count("\n") == 1

    def test_machine_query_learns_into_the_saved_store(self, tmp_path):
        """--engine machine learns through the engine's hook and honours
        --save-store, with the same answers as before."""
        store = tmp_path / "m.json"
        code, out = run_cli(
            "--demo", "--engine", "machine", "--query", "gf(sam, G)",
            "--save-store", str(store),
        )
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("G =")] == [
            "G = den",
            "G = doug",
        ]
        assert store.exists()
        engine = BLogEngine(family_program())
        engine.run_machine("gf(sam, G)", MachineConfig())
        learned = load_store(store).snapshot()
        assert learned and learned.keys() == engine.store.snapshot().keys()

class TestServeSubcommand:
    def test_selfcheck_roundtrip(self):
        """`repro serve --demo --selfcheck` starts the TCP service,
        queries itself, prints stats, and exits cleanly."""
        code, out = run_cli("serve", "--demo", "--port", "0", "--selfcheck")
        assert code == 0
        assert "serving family on" in out
        assert out.count("ok=True") == 4
        assert "cache hit rate" in out

    def test_serve_without_program_errors(self):
        code, out = run_cli("serve", "--port", "0", "--selfcheck")
        assert code == 2
        assert "--source FILE and/or --demo" in out

    def test_legacy_flags_unaffected_by_subcommand(self):
        code, out = run_cli("--demo", "--query", "gf(sam, G)")
        assert code == 0
        assert "G = den" in out
