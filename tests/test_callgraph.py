"""Call-graph construction and resolution (repro.analysis.callgraph).

The whole-program lint pass is only as good as its edges, so these tests
pin the resolver's behaviors one by one: module symbol tables, import
binding (plain / aliased / from / relative / function-local), ``self.x()``
dispatch through the class layout and base chains, constructor-typed
locals and instance attributes, nested-scope lookup, async-ness, and the
awaited/discarded flags the async rules key on.
"""

import textwrap
from pathlib import Path

from repro.analysis.callgraph import (
    build_call_graph,
    build_call_graph_from_paths,
    module_name_for,
)


def graph_from(tree_files: dict[str, str], tmp_path: Path):
    """Write a fixture tree and build its call graph."""
    for rel, source in tree_files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source), encoding="utf-8")
    return build_call_graph_from_paths([tmp_path], root=tmp_path)


def site_for(graph, qualname, terminal):
    fn = graph.functions[qualname]
    for site in fn.calls:
        if site.terminal == terminal:
            return site
    raise AssertionError(
        f"no call to {terminal!r} in {qualname}: "
        f"{[s.terminal for s in fn.calls]}"
    )


class TestModuleNames:
    def test_package_walking(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert module_name_for(pkg / "mod.py") == "mypkg.sub.mod"
        assert module_name_for(pkg / "__init__.py") == "mypkg.sub"

    def test_bare_tree_uses_root_relative_path(self, tmp_path):
        a = tmp_path / "serving" / "mod.py"
        a.parent.mkdir(parents=True)
        a.write_text("x = 1\n")
        assert module_name_for(a, root=tmp_path) == "serving.mod"


class TestSymbolTable:
    def test_functions_classes_and_async_flags(self, tmp_path):
        graph = graph_from({"m.py": """
            def helper():
                pass

            async def coro():
                pass

            class Box:
                def get(self):
                    pass

                async def put(self):
                    pass
        """}, tmp_path)
        assert graph.functions["m.helper"].is_async is False
        assert graph.functions["m.coro"].is_async is True
        assert graph.functions["m.Box.get"].is_async is False
        assert graph.functions["m.Box.put"].is_async is True
        assert graph.classes["m.Box"].methods["put"] == "m.Box.put"

    def test_conditionally_defined_functions_are_collected(self, tmp_path):
        graph = graph_from({"m.py": """
            try:
                def fast():
                    pass
            except ImportError:
                def fast():
                    pass
        """}, tmp_path)
        assert "m.fast" in graph.functions


class TestCallResolution:
    def test_bare_name_resolves_to_module_function(self, tmp_path):
        graph = graph_from({"m.py": """
            def helper():
                pass

            def caller():
                helper()
        """}, tmp_path)
        assert site_for(graph, "m.caller", "helper").resolved == "m.helper"

    def test_self_dispatch_through_base_class(self, tmp_path):
        graph = graph_from({"m.py": """
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def go(self):
                    self.shared()
        """}, tmp_path)
        assert (
            site_for(graph, "m.Child.go", "shared").resolved
            == "m.Base.shared"
        )

    def test_from_import_resolves_cross_module(self, tmp_path):
        graph = graph_from({
            "util.py": """
                def work():
                    pass
            """,
            "caller.py": """
                from util import work

                def go():
                    work()
            """,
        }, tmp_path)
        assert site_for(graph, "caller.go", "work").resolved == "util.work"

    def test_bare_tree_import_resolves_to_a_sibling(self, tmp_path):
        graph = graph_from({
            "core/util.py": """
                def backoff():
                    pass
            """,
            "core/srv.py": """
                import util as u
                from util import backoff

                def go():
                    backoff()
                    u.backoff()
            """,
        }, tmp_path)
        site = site_for(graph, "core.srv.go", "backoff")
        assert site.resolved == "core.util.backoff"
        assert [s.resolved for s in graph.functions["core.srv.go"].calls] \
            == ["core.util.backoff"] * 2

    def test_top_level_module_wins_over_a_sibling(self, tmp_path):
        graph = graph_from({
            "util.py": """
                def backoff():
                    pass
            """,
            "core/util.py": """
                def backoff():
                    pass
            """,
            "core/srv.py": """
                from util import backoff

                def go():
                    backoff()
            """,
        }, tmp_path)
        assert site_for(graph, "core.srv.go", "backoff").resolved \
            == "util.backoff"

    def test_relative_and_function_local_imports(self, tmp_path):
        graph = graph_from({
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def deep():
                    pass
            """,
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": """
                def go():
                    from ..util import deep
                    deep()
            """,
        }, tmp_path)
        assert (
            site_for(graph, "pkg.sub.mod.go", "deep").resolved
            == "pkg.util.deep"
        )

    def test_import_alias_dotted_call(self, tmp_path):
        graph = graph_from({
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def work():
                    pass
            """,
            "main.py": """
                import pkg.util as u

                def go():
                    u.work()
            """,
        }, tmp_path)
        assert site_for(graph, "main.go", "work").resolved == "pkg.util.work"

    def test_external_call_gets_canonical_name(self, tmp_path):
        graph = graph_from({"m.py": """
            import time
            from time import sleep as zzz

            def a():
                time.sleep(1)

            def b():
                zzz(1)
        """}, tmp_path)
        assert site_for(graph, "m.a", "sleep").external == "time.sleep"
        assert site_for(graph, "m.b", "zzz").external == "time.sleep"

    def test_nested_def_resolves_through_lexical_scope(self, tmp_path):
        graph = graph_from({"m.py": """
            def outer():
                def inner():
                    pass
                inner()
        """}, tmp_path)
        assert (
            site_for(graph, "m.outer", "inner").resolved
            == "m.outer.inner"
        )

    def test_constructor_typed_local(self, tmp_path):
        graph = graph_from({"m.py": """
            class Server:
                async def start(self):
                    pass

            def go():
                server = Server()
                server.start()
        """}, tmp_path)
        assert (
            site_for(graph, "m.go", "start").resolved == "m.Server.start"
        )

    def test_constructor_typed_instance_attr(self, tmp_path):
        graph = graph_from({"m.py": """
            class Http:
                async def serve(self):
                    pass

            class Front:
                def __init__(self):
                    self._http = Http()

                async def start(self):
                    await self._http.serve()
        """}, tmp_path)
        site = site_for(graph, "m.Front.start", "serve")
        assert site.resolved == "m.Http.serve"
        assert site.awaited is True

    def test_class_instantiation_resolves_to_init(self, tmp_path):
        graph = graph_from({"m.py": """
            class Thing:
                def __init__(self):
                    pass

            def go():
                Thing()
        """}, tmp_path)
        assert (
            site_for(graph, "m.go", "Thing").resolved == "m.Thing.__init__"
        )

    def test_unresolvable_call_keeps_raw_and_terminal(self, tmp_path):
        graph = graph_from({"m.py": """
            def go(events):
                events.run_until(10)
        """}, tmp_path)
        site = site_for(graph, "m.go", "run_until")
        assert site.resolved is None and site.external is None
        assert site.raw == "events.run_until"


class TestCallSiteFlags:
    def test_awaited_and_discarded_flags(self, tmp_path):
        graph = graph_from({"m.py": """
            async def coro():
                pass

            async def go():
                await coro()     # awaited, not discarded
                coro()           # bare statement: discarded
                x = coro()       # kept: not discarded
        """}, tmp_path)
        sites = [
            s for s in graph.functions["m.go"].calls if s.terminal == "coro"
        ]
        assert [(s.awaited, s.discarded) for s in sites] == [
            (True, False), (False, True), (False, False),
        ]

    def test_resolved_callees_are_deduped_in_order(self, tmp_path):
        graph = graph_from({"m.py": """
            def a():
                pass

            def b():
                pass

            def go():
                a(); b(); a()
        """}, tmp_path)
        assert graph.resolved_callees("m.go") == ["m.a", "m.b"]


class TestRealPackage:
    def test_repro_package_builds_and_resolves_serving_edges(self):
        import repro

        package_root = Path(repro.__file__).resolve().parent
        graph = build_call_graph_from_paths([package_root])
        # The serving plane's constructor-typed attribute edge: the
        # NexusServer frontend resolving into HttpServer.serve.
        start = graph.functions["repro.serving.server.NexusServer.start"]
        serve_sites = [s for s in start.calls if s.terminal == "serve"]
        assert serve_sites and serve_sites[0].resolved == (
            "repro.serving.http.HttpServer.serve"
        )
        assert graph.functions[
            "repro.serving.http.HttpServer.serve"
        ].is_async
