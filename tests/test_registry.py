import pytest

from civitas.registry import (ClassificationError, DmModule,
                              DmRegistry, Direction, Goal, InteractionKind,
                              LinkRole, classification_report, goals_conflict,
                              load_registry)


def module(mid, level, goals=(), inputs=("in",), outputs=("out",)):
    return DmModule(mid, level, tuple(goals), (), tuple(inputs), tuple(outputs))


MAX, MIN, HOLD = Direction.MAXIMIZE, Direction.MINIMIZE, Direction.HOLD


class TestRegister:
    def test_register_returns_id(self):
        reg = DmRegistry()
        assert reg.register(module("itu1", 1)) == "itu1"
        assert reg.module("itu1").level == 1

    def test_duplicate_id_rejected(self):
        reg = DmRegistry()
        reg.register(module("itu1", 1))
        with pytest.raises(ValueError):
            reg.register(module("itu1", 2))

    def test_distinct_levels_both_queryable(self):
        reg = DmRegistry()
        reg.register(module("a", 1))
        reg.register(module("b", 2))
        assert {m.id for m in reg._modules.values()} == {"a", "b"}

    def test_duplicate_port_names_rejected(self):
        with pytest.raises(ValueError):
            DmModule("m", 1, inputs=("p",), outputs=("p",))


class TestClassify:
    def make_reg(self):
        reg = DmRegistry()
        reg.register(module("itu1", 1, [Goal("throughput", MAX)]))
        reg.register(module("itu2", 1, [Goal("throughput", MAX)]))
        reg.register(module("ztcu", 2, [Goal("zone_throughput", MAX)]))
        reg.register(module("light", 2, [Goal("illumination", MAX),
                                         Goal("zone_energy", MAX)]))
        reg.register(module("power", 2, [Goal("zone_energy", MIN)]))
        return reg

    def test_same_level_compatible_is_collaborative(self):
        reg = self.make_reg()
        assert reg.classify("itu1", "itu2", LinkRole.DATA) is InteractionKind.COLLABORATIVE

    def test_opposing_goals_compete(self):
        reg = self.make_reg()
        assert reg.classify("light", "power", LinkRole.DATA) is InteractionKind.COMPETING

    def test_downward_goal_setting_guides(self):
        reg = self.make_reg()
        assert reg.classify("ztcu", "itu1", LinkRole.GOAL_SETTING) is InteractionKind.GUIDING

    def test_upward_capability_report_enables(self):
        reg = self.make_reg()
        assert reg.classify("itu1", "ztcu", LinkRole.CAPABILITY_REPORT) is InteractionKind.ENABLING

    def test_level_skip_rejected(self):
        reg = self.make_reg()
        reg.register(module("tcu", 4))
        with pytest.raises(ClassificationError):
            reg.classify("tcu", "itu1", LinkRole.GOAL_SETTING)

    def test_competing_is_symmetric(self):
        reg = self.make_reg()
        a = reg.classify("light", "power", LinkRole.DATA)
        b = reg.classify("power", "light", LinkRole.DATA)
        assert a is b is InteractionKind.COMPETING

    def test_hold_goals_never_conflict(self):
        a = module("a", 1, [Goal("q", HOLD)])
        b = module("b", 1, [Goal("q", MIN)])
        assert not goals_conflict(a, b)

    def test_same_direction_goals_never_conflict(self):
        a = module("a", 1, [Goal("q", MIN)])
        b = module("b", 1, [Goal("q", MIN)])
        assert not goals_conflict(a, b)

    def test_wrong_role_between_same_level_rejected(self):
        reg = self.make_reg()
        with pytest.raises(ClassificationError):
            reg.classify("itu1", "itu2", LinkRole.GOAL_SETTING)

    def test_classification_total_and_deterministic(self):
        reg = self.make_reg()
        for _ in range(3):
            assert reg.classify("itu1", "itu2", LinkRole.DATA) is InteractionKind.COLLABORATIVE


class TestWire:
    def test_wire_records_kind(self):
        reg = DmRegistry()
        reg.register(module("z", 2, outputs=("deadlines",)))
        reg.register(module("i", 1, inputs=("deadlines",)))
        link = reg.wire(("z", "deadlines"), ("i", "deadlines"), LinkRole.GOAL_SETTING)
        assert link.kind is InteractionKind.GUIDING
        assert reg.link_kind("z", "i") is InteractionKind.GUIDING

    def test_unknown_port_rejected(self):
        reg = DmRegistry()
        reg.register(module("z", 2))
        reg.register(module("i", 1))
        with pytest.raises(ClassificationError):
            reg.wire(("z", "ghost"), ("i", "in"), LinkRole.GOAL_SETTING)

    def test_level_skip_wire_rejected(self):
        reg = DmRegistry()
        reg.register(module("tcu", 4))
        reg.register(module("itu", 1))
        with pytest.raises(ClassificationError):
            reg.wire(("tcu", "out"), ("itu", "in"), LinkRole.GOAL_SETTING)


class TestShippedRegistry:
    # Hand-enumerated expected kinds for every link in the shipped file.
    EXPECTED = {
        ("tcu", "atcu"): InteractionKind.GUIDING,
        ("atcu", "ztcu"): InteractionKind.GUIDING,
        ("ztcu", "itu_a"): InteractionKind.GUIDING,
        ("ztcu", "itu_b"): InteractionKind.GUIDING,
        ("itu_a", "ztcu"): InteractionKind.ENABLING,
        ("itu_b", "ztcu"): InteractionKind.ENABLING,
        ("ztcu", "atcu"): InteractionKind.ENABLING,
        ("atcu", "tcu"): InteractionKind.ENABLING,
        ("itu_a", "itu_b"): InteractionKind.COLLABORATIVE,
        ("lighting_zone", "power_zone"): InteractionKind.COMPETING,
    }

    def test_all_links_classify_as_enumerated(self, city_registry_text):
        reg = load_registry(city_registry_text)
        got = {(l.src[0], l.dst[0]): l.kind for l in reg.links()}
        assert got == self.EXPECTED

    def test_all_four_kinds_present(self, city_registry_text):
        reg = load_registry(city_registry_text)
        assert {l.kind for l in reg.links()} == set(InteractionKind)

    def test_report_csv_shape(self, city_registry_text):
        reg = load_registry(city_registry_text)
        lines = classification_report(reg).strip().splitlines()
        assert lines[0] == "src,dst,role,kind"
        assert len(lines) == 1 + len(self.EXPECTED)
