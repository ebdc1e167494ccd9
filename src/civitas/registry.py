"""Goal-oriented registry of decision-making modules.

Modules declare their hierarchy level, goals, capabilities and ports;
their internal decision models stay opaque.  Links between registered
modules classify into four interaction kinds: same-level data exchange is
Collaborative unless the endpoints carry opposing goals on a shared
quantity (Competing); downward goal-setting is Guiding and upward
capability reporting is Enabling, both restricted to adjacent levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .textfmt import ParseError, Section, finite, parse_sections


class Direction(enum.Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"
    HOLD = "hold"


class LinkRole(enum.Enum):
    DATA = "data"
    GOAL_SETTING = "goal-setting"
    CAPABILITY_REPORT = "capability-report"


class InteractionKind(enum.Enum):
    COLLABORATIVE = "Collaborative"
    COMPETING = "Competing"
    GUIDING = "Guiding"
    ENABLING = "Enabling"


@dataclass(frozen=True)
class Goal:
    quantity: str
    direction: Direction
    bound: float | None = None


@dataclass(frozen=True)
class Capability:
    quantity: str
    limit: float


@dataclass(frozen=True)
class DmModule:
    id: str
    level: int
    goals: tuple[Goal, ...] = ()
    capabilities: tuple[Capability, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        ports = list(self.inputs) + list(self.outputs)
        if len(set(ports)) != len(ports):
            raise ValueError(f"[module {self.id}] inputs, outputs: duplicate port name")


class ClassificationError(ValueError):
    """The link is not expressible in the interaction taxonomy."""


@dataclass(frozen=True)
class Interaction:
    kind: InteractionKind
    src: tuple[str, str]  # (module id, port)
    dst: tuple[str, str]
    role: LinkRole


def goals_conflict(a: DmModule, b: DmModule) -> bool:
    """Opposing max/min goals on the same quantity name; hold never conflicts."""
    opposing = {(Direction.MAXIMIZE, Direction.MINIMIZE),
                (Direction.MINIMIZE, Direction.MAXIMIZE)}
    for ga in a.goals:
        for gb in b.goals:
            if ga.quantity == gb.quantity and (ga.direction, gb.direction) in opposing:
                return True
    return False


class DmRegistry:
    """Startup-built, then effectively immutable module/link registry."""

    def __init__(self):
        self._modules: dict[str, DmModule] = {}
        self._links: list[Interaction] = []

    def register(self, module: DmModule) -> str:
        if module.id in self._modules:
            raise ValueError(f"duplicate module id {module.id!r}")
        self._modules[module.id] = module
        return module.id

    def module(self, module_id: str) -> DmModule:
        if module_id not in self._modules:
            raise KeyError(f"unknown module {module_id!r}")
        return self._modules[module_id]

    def classify(self, src_id: str, dst_id: str, role: LinkRole) -> InteractionKind:
        """Interaction kind of a src-output -> dst-input link."""
        src, dst = self.module(src_id), self.module(dst_id)
        levels = (f"[module {src_id}] level {src.level} -> [module {dst_id}]"
                  f" level {dst.level}")
        if src.level == dst.level:
            if role is not LinkRole.DATA:
                raise ClassificationError(
                    f"{role.value} link between same-level modules ({levels})")
            return (InteractionKind.COMPETING if goals_conflict(src, dst)
                    else InteractionKind.COLLABORATIVE)
        if role is LinkRole.GOAL_SETTING:
            if src.level != dst.level + 1:
                raise ClassificationError(
                    f"goal-setting link must step one level down ({levels})")
            return InteractionKind.GUIDING
        if role is LinkRole.CAPABILITY_REPORT:
            if src.level != dst.level - 1:
                raise ClassificationError(
                    f"capability report must step one level up ({levels})")
            return InteractionKind.ENABLING
        raise ClassificationError(f"data link across levels is not classifiable ({levels})")

    def wire(self, src: tuple[str, str], dst: tuple[str, str],
             role: LinkRole) -> Interaction:
        """Record a classified link between existing ports."""
        src_mod, src_port = src
        dst_mod, dst_port = dst
        if src_port not in self.module(src_mod).outputs:
            raise ClassificationError(f"[module {src_mod}] outputs: no port {src_port!r}")
        if dst_port not in self.module(dst_mod).inputs:
            raise ClassificationError(f"[module {dst_mod}] inputs: no port {dst_port!r}")
        kind = self.classify(src_mod, dst_mod, role)
        link = Interaction(kind, src, dst, role)
        self._links.append(link)
        return link

    def links(self) -> list[Interaction]:
        return list(self._links)

    def link_kind(self, src_mod: str, dst_mod: str) -> InteractionKind | None:
        for link in self._links:
            if link.src[0] == src_mod and link.dst[0] == dst_mod:
                return link.kind
        return None


def _port(sec: Section, key: str) -> tuple[str, str]:
    parts = sec.require(key).split(".")
    if len(parts) != 2:
        raise sec.error(key, "expected module.port")
    return parts[0], parts[1]


def load_registry(text: str) -> DmRegistry:
    """Build a registry from its structured-text description."""
    reg = DmRegistry()
    links = []
    for sec in parse_sections(text):
        if sec.kind == "module":
            goals = sec.items("goals", "quantity:direction[:bound]", str, Direction,
                              finite, least=2)
            caps = sec.items("capabilities", "quantity:limit", str, finite)
            reg.register(DmModule(
                sec.name, sec.require_int("level"),
                tuple(Goal(*g) for g in goals), tuple(Capability(*c) for c in caps),
                tuple(sec.get_list("inputs")), tuple(sec.get_list("outputs"))))
        elif sec.kind == "link":
            links.append((sec, _port(sec, "src"), _port(sec, "dst"),
                          sec.choice("role", LinkRole)))
        else:
            raise ParseError(f"line {sec.line}: unknown section kind {sec.kind!r}"
                             " in registry file")
    for sec, src, dst, role in links:
        with sec.context():
            reg.wire(src, dst, role)
    return reg


def classification_report(reg: DmRegistry) -> str:
    lines = ["src,dst,role,kind"]
    for link in reg.links():
        lines.append(f"{link.src[0]},{link.dst[0]},{link.role.value},{link.kind.value}")
    return "\n".join(lines) + "\n"
