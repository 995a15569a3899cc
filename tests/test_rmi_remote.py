"""Unit tests for remote-interface metadata extraction."""

from typing import List, Sequence, Tuple

import pytest

from repro.rmi.remote import (
    RESERVED_METHOD_NAMES,
    RemoteInterface,
    RemoteObject,
    interface_names,
    lookup_interface,
    method_parallel_safe,
    methods_of,
    methods_of_names,
    qualified_name,
    remote_interfaces,
    remote_method,
    remote_methods,
)

from tests.support import Container, Counter, CounterImpl, Item


class Shapes(RemoteInterface):
    def plain(self) -> int: ...

    def untyped(self): ...

    def remote(self) -> Counter: ...

    def listed(self) -> List[Counter]: ...

    def sequenced(self) -> Sequence[Counter]: ...

    def tupled(self) -> Tuple[Counter]: ...

    def strings(self) -> List[str]: ...

    def _private(self) -> int: ...


class Extended(Shapes):
    def extra(self) -> str: ...


class TestClassification:
    def test_value_return(self):
        assert remote_methods(Shapes)["plain"].returns_kind == "value"

    def test_missing_annotation_is_value(self):
        assert remote_methods(Shapes)["untyped"].returns_kind == "value"

    def test_remote_return(self):
        spec = remote_methods(Shapes)["remote"]
        assert spec.returns_kind == "remote"
        assert spec.returns_interface == qualified_name(Counter)

    @pytest.mark.parametrize("method", ["listed", "sequenced", "tupled"])
    def test_sequence_of_remote_is_cursor(self, method):
        spec = remote_methods(Shapes)[method]
        assert spec.returns_kind == "cursor"
        assert spec.returns_interface == qualified_name(Counter)

    def test_sequence_of_values_is_value(self):
        assert remote_methods(Shapes)["strings"].returns_kind == "value"

    def test_private_methods_excluded(self):
        assert "_private" not in remote_methods(Shapes)

    def test_inherited_methods_included(self):
        specs = remote_methods(Extended)
        assert "plain" in specs and "extra" in specs

    def test_non_interface_rejected(self):
        with pytest.raises(TypeError):
            remote_methods(int)


class TestRegistry:
    def test_interfaces_auto_registered(self):
        assert lookup_interface(qualified_name(Shapes)) is Shapes

    def test_unknown_interface(self):
        with pytest.raises(KeyError):
            lookup_interface("no.such.Interface")

    def test_methods_of_names_union(self):
        specs = methods_of_names(
            [qualified_name(Counter), qualified_name(Container)]
        )
        assert "increment" in specs and "all_items" in specs

    def test_methods_of_names_skips_unknown(self):
        specs = methods_of_names(["ghost.Iface", qualified_name(Counter)])
        assert "increment" in specs


class TestReservedNames:
    @pytest.mark.parametrize("name", sorted(RESERVED_METHOD_NAMES))
    def test_reserved_names_rejected(self, name):
        with pytest.raises(TypeError):
            type(
                f"Bad_{name}",
                (RemoteInterface,),
                {name: lambda self: None},
            )

    def test_get_is_allowed(self):
        """``get`` collides with Future.get only on futures, not proxies."""

        class HasGet(RemoteInterface):
            def get(self, key: str) -> str: ...

        assert "get" in remote_methods(HasGet)


class TestInterfaceNames:
    def test_implementation_lists_interfaces(self):
        names = interface_names(CounterImpl())
        assert qualified_name(Counter) in names

    def test_remote_interfaces_excludes_base(self):
        assert RemoteInterface not in remote_interfaces(CounterImpl)

    def test_plain_object_has_none(self):
        class NotRemote(RemoteObject):
            pass

        assert interface_names(NotRemote()) == ()

    def test_multiple_interfaces(self):
        class Both(RemoteObject, Counter, Item):
            pass

        names = interface_names(Both)
        assert qualified_name(Counter) in names
        assert qualified_name(Item) in names


class TestDispatchTable:
    def test_table_is_compiled_once_and_shared(self):
        assert remote_methods(Shapes) is remote_methods(Shapes)
        assert methods_of(CounterImpl()) is methods_of(CounterImpl)
        names = (qualified_name(Counter),)
        assert methods_of_names(names) is methods_of_names(list(names))
        assert interface_names(CounterImpl()) is interface_names(CounterImpl)

    def test_returned_mappings_are_read_only(self):
        for table in (
            remote_methods(Shapes),
            methods_of(CounterImpl),
            methods_of_names([qualified_name(Counter)]),
        ):
            with pytest.raises(TypeError):
                table["sneaked_in"] = None
            with pytest.raises(TypeError):
                del table[next(iter(table))]
        assert "sneaked_in" not in remote_methods(Shapes)

    def test_registration_after_first_use_is_visible(self):
        class Early(RemoteInterface):
            @remote_method(parallel_safe=True)
            def probe_late_registration(self) -> int: ...

        class EarlyImpl(RemoteObject, Early):
            pass

        assert "probe_late_registration" in methods_of(EarlyImpl)
        assert method_parallel_safe("probe_late_registration")
        assert not method_parallel_safe("probe_added_later")
        ghost = qualified_name(Early).replace("Early", "Late")
        assert methods_of_names([ghost]) == {}

        class Late(RemoteInterface):
            def probe_late_registration(self) -> int: ...

            @remote_method(parallel_safe=True)
            def probe_added_later(self) -> int: ...

        assert qualified_name(Late) == ghost
        # One unsafe declaration now poisons the shared name; the new
        # name and the formerly unregistered interface both show up.
        assert not method_parallel_safe("probe_late_registration")
        assert method_parallel_safe("probe_added_later")
        assert set(methods_of_names([ghost])) == {
            "probe_late_registration", "probe_added_later",
        }
        assert "probe_late_registration" in methods_of(EarlyImpl)

    def test_unresolvable_annotation_is_never_cached(self):
        class Dangling(RemoteInterface):
            def target(self) -> "NotRegisteredYetTarget": ...

        class DanglingImpl(RemoteObject, Dangling):
            pass

        for _ in range(2):
            with pytest.raises(TypeError, match="cannot resolve") as info:
                remote_methods(Dangling)
            assert isinstance(info.value.__cause__, NameError)
            with pytest.raises(TypeError, match="cannot resolve"):
                methods_of(DanglingImpl)
        # Names need no annotations, so the object stays exportable.
        assert interface_names(DanglingImpl) == (qualified_name(Dangling),)

        class NotRegisteredYetTarget(RemoteInterface):
            def ping(self) -> int: ...

        spec = methods_of(DanglingImpl)["target"]
        assert spec.returns_kind == "remote"
        assert spec.returns_interface == qualified_name(NotRegisteredYetTarget)

    def test_tables_do_not_keep_classes_alive(self):
        import gc
        import weakref

        def build():
            class Fleeting(RemoteInterface):
                def ping(self) -> int: ...

            class FleetingImpl(RemoteObject, Fleeting):
                pass

            assert "ping" in methods_of(FleetingImpl)
            assert interface_names(FleetingImpl)
            return weakref.ref(FleetingImpl)

        ref = build()

        class Flush(RemoteInterface):
            def ping(self) -> int: ...

        gc.collect()
        assert ref() is None
