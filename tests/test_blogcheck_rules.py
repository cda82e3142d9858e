"""Per-rule fixture tests for blogcheck (src/repro/analysis).

Each rule gets one bad snippet (must flag) and one good snippet (must
stay quiet); plus suppression-comment behavior, the JSON reporter
schema, and the CLI exit codes the CI gate relies on.

Fixture files are written under ``tmp_path/repro/...`` so that
:func:`repro.analysis.runner.module_identity` gives them the same
package-relative identity the real tree has — the module-scoped rules
(BLG001, BLG005, BLG007) key off that.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis import analyze_paths, render_json, rules_by_code
from repro.analysis.runner import module_identity
from repro.cli import main


def lint_snippet(tmp_path: Path, relpath: str, source: str, select=None):
    """Write one fixture file and run blogcheck over the tmp tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return analyze_paths([tmp_path], select=select)


def codes(result) -> list[str]:
    return [f.rule for f in result.findings]


class TestRegistry:
    def test_four_rules_registered(self):
        registry = rules_by_code()
        assert sorted(registry) == ["BLG001", "BLG002", "BLG005", "BLG007"]

    def test_module_identity_from_repro_root(self, tmp_path):
        p = tmp_path / "deep" / "repro" / "weights" / "store.py"
        p.parent.mkdir(parents=True)
        p.write_text("")
        assert module_identity(p) == "repro/weights/store.py"
        assert module_identity(tmp_path / "scratch.py") == "scratch.py"


class TestStoreMutation:
    BAD = "def f(store, w):\n    store.set_known('arc', w)\n"

    def test_flags_mutator_outside_whitelist(self, tmp_path):
        result = lint_snippet(tmp_path, "repro/ortree/bad.py", self.BAD)
        assert codes(result) == ["BLG001"]

    def test_quiet_inside_weights_package(self, tmp_path):
        result = lint_snippet(tmp_path, "repro/weights/ok.py", self.BAD)
        assert result.ok

    def test_quiet_outside_the_package(self, tmp_path):
        # scripts/tests exercise mutators directly; the contract governs repro/
        result = lint_snippet(tmp_path, "scratch.py", self.BAD)
        assert result.ok

    def test_clear_needs_storelike_receiver(self, tmp_path):
        src = "def f(self):\n    self.marks.clear()\n    self.store.clear()\n"
        result = lint_snippet(tmp_path, "repro/spd/x.py", src)
        assert codes(result) == ["BLG001"]  # only self.store.clear()


class TestBlockingAsync:
    def test_flags_sleep_in_async(self, tmp_path):
        src = "import time\nasync def f():\n    time.sleep(1)\n"
        result = lint_snippet(tmp_path, "repro/service/bad.py", src)
        assert codes(result) == ["BLG002"]

    def test_quiet_in_sync_def_and_async_sleep(self, tmp_path):
        src = (
            "import asyncio, time\n"
            "def g():\n    time.sleep(1)\n"
            "async def f():\n    await asyncio.sleep(1)\n"
        )
        result = lint_snippet(tmp_path, "repro/service/ok.py", src)
        assert result.ok

    def test_sync_def_nested_in_async_is_quiet(self, tmp_path):
        src = (
            "import time\n"
            "async def f():\n"
            "    def worker():\n        time.sleep(1)\n"
            "    return worker\n"
        )
        result = lint_snippet(tmp_path, "repro/service/ok2.py", src)
        assert result.ok

    def test_flags_sync_pipe_io_in_async(self, tmp_path):
        src = "async def f(conn):\n    return conn.recv_bytes()\n"
        result = lint_snippet(tmp_path, "repro/service/bad2.py", src)
        assert codes(result) == ["BLG002"]


class TestSwallowedException:
    def test_flags_pass_only_handler(self, tmp_path):
        src = "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n"
        result = lint_snippet(tmp_path, "repro/service/bad.py", src)
        assert codes(result) == ["BLG005"]

    def test_flags_bare_except(self, tmp_path):
        src = "def f(g):\n    try:\n        g()\n    except:\n        g = None\n"
        result = lint_snippet(tmp_path, "repro/service/bad2.py", src)
        assert codes(result) == ["BLG005"]

    def test_quiet_when_handler_counts_or_replies(self, tmp_path):
        src = (
            "def f(g, counter):\n"
            "    try:\n        return g()\n"
            "    except OSError:\n        counter.inc()\n"
            "    except ValueError as exc:\n        return {'ok': False, 'error': str(exc)}\n"
        )
        result = lint_snippet(tmp_path, "repro/service/ok.py", src)
        assert result.ok

    def test_scoped_to_hot_paths(self, tmp_path):
        src = "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n"
        result = lint_snippet(tmp_path, "repro/logic/ok.py", src)
        assert result.ok


class TestAtomicWrite:
    GOOD = (
        "import json, os\n"
        "def save(payload, tmp, path):\n"
        "    fh = open(tmp, 'w')\n"
        "    try:\n"
        "        json.dump(payload, fh)\n"
        "        fh.flush()\n"
        "        os.fsync(fh.fileno())\n"
        "    finally:\n"
        "        fh.close()\n"
        "    os.replace(tmp, path)\n"
    )

    def test_flags_handleless_write(self, tmp_path):
        src = "import json\ndef save(store, path):\n    path.write_text(json.dumps(store))\n"
        result = lint_snippet(tmp_path, "repro/weights/bad.py", src)
        assert codes(result) == ["BLG007"]

    def test_flags_replace_without_fsync(self, tmp_path):
        src = (
            "import os\n"
            "def save(tmp, path):\n"
            "    with open(tmp, 'w') as fh:\n"
            "        fh.write('x')\n"
            "    os.replace(tmp, path)\n"
        )
        result = lint_snippet(tmp_path, "repro/weights/bad2.py", src)
        assert codes(result) == ["BLG007"]
        assert "page cache" in result.findings[0].message

    def test_quiet_on_the_full_idiom(self, tmp_path):
        result = lint_snippet(tmp_path, "repro/weights/ok.py", self.GOOD)
        assert result.ok

    def test_scoped_to_weights_package(self, tmp_path):
        # the trace-log rotation in repro/service uses os.replace on a
        # best-effort export file; the durability contract governs the
        # weight stores only
        src = "import os\ndef rotate(a, b):\n    os.replace(a, b)\n"
        result = lint_snippet(tmp_path, "repro/service/ok.py", src)
        assert result.ok

    def test_module_level_write_checked(self, tmp_path):
        src = "from pathlib import Path\nPath('w.json').write_bytes(b'{}')\n"
        result = lint_snippet(tmp_path, "repro/weights/bad3.py", src)
        assert codes(result) == ["BLG007"]


class TestSuppressions:
    BAD = "def f(store, w):\n    store.set_known('arc', w){comment}\n"

    def test_same_line_suppression(self, tmp_path):
        src = self.BAD.format(comment="  # blogcheck: ignore[BLG001] — test fixture")
        result = lint_snippet(tmp_path, "repro/ortree/x.py", src)
        assert result.ok
        assert [f.rule for f in result.suppressed] == ["BLG001"]

    def test_comment_line_above_suppresses_next_line(self, tmp_path):
        src = (
            "def f(store, w):\n"
            "    # blogcheck: ignore[BLG001]\n"
            "    store.set_known('arc', w)\n"
        )
        result = lint_snippet(tmp_path, "repro/ortree/x.py", src)
        assert result.ok and len(result.suppressed) == 1

    def test_bare_ignore_silences_all_rules(self, tmp_path):
        src = self.BAD.format(comment="  # blogcheck: ignore")
        result = lint_snippet(tmp_path, "repro/ortree/x.py", src)
        assert result.ok

    def test_wrong_code_does_not_suppress(self, tmp_path):
        src = self.BAD.format(comment="  # blogcheck: ignore[BLG002]")
        result = lint_snippet(tmp_path, "repro/ortree/x.py", src)
        assert codes(result) == ["BLG001"]


class TestReporting:
    def test_json_schema_stable(self, tmp_path):
        result = lint_snippet(
            tmp_path, "repro/service/bad.py",
            "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n",
        )
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert set(doc) == {"version", "files", "counts", "findings", "suppressed"}
        assert doc["counts"] == {"BLG005": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {
            "rule", "name", "path", "module", "line", "col", "message",
        }
        assert finding["module"] == "repro/service/bad.py"

    def test_syntax_error_is_a_finding(self, tmp_path):
        result = lint_snippet(tmp_path, "repro/service/broken.py", "def f(:\n")
        assert codes(result) == ["BLG000"]


class TestCli:
    SEEDS = {
        "BLG001": "def f(store, w):\n    store.set_known('a', w)\n",
        "BLG002": "import time\nasync def f():\n    time.sleep(1)\n",
        "BLG005": "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n",
        "BLG007": "import json\ndef f(store, path):\n    path.write_text(json.dumps(store))\n",
    }
    #: rules scoped to another package than repro/service
    SEED_DIRS = {"BLG007": ("repro", "weights")}

    def test_each_rule_fails_the_cli_gate(self, tmp_path):
        # the acceptance criterion: a seeded violation of every rule
        # makes `python -m repro.cli lint` exit non-zero
        for code, src in self.SEEDS.items():
            root = tmp_path / code.lower()
            pkg = self.SEED_DIRS.get(code, ("repro", "service"))
            target = root.joinpath(*pkg) / "seeded.py"
            target.parent.mkdir(parents=True)
            target.write_text(src)
            out = io.StringIO()
            assert main(["lint", str(root)], out=out) == 1, code
            assert code in out.getvalue(), code

    def test_clean_tree_exits_zero(self, tmp_path):
        target = tmp_path / "repro" / "service" / "fine.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f():\n    return 1\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_github_annotations(self, tmp_path):
        target = tmp_path / "repro" / "service" / "seeded.py"
        target.parent.mkdir(parents=True)
        target.write_text(self.SEEDS["BLG005"])
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--github"], out=out) == 1
        text = out.getvalue()
        assert "::error file=" in text and "BLG005" in text

    def test_select_and_list_rules(self, tmp_path):
        target = tmp_path / "repro" / "service" / "seeded.py"
        target.parent.mkdir(parents=True)
        target.write_text(self.SEEDS["BLG005"])
        # selecting a different rule: the BLG005 violation is not checked
        assert main(["lint", str(tmp_path), "--select", "BLG001"], out=io.StringIO()) == 0
        assert main(["lint", str(tmp_path), "--select", "nope"], out=io.StringIO()) == 2
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out=out) == 0
        assert out.getvalue().count("BLG") == 4

    def test_json_format_flag(self, tmp_path):
        target = tmp_path / "repro" / "service" / "fine.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--format", "json"], out=out) == 0
        assert json.loads(out.getvalue())["version"] == 1
