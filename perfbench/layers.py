"""Layer attribution from an optimizer's phase spans, and the layer table.

Spans come as (phase, lane, seconds) per iteration, from the benchmark's
RunObserver or from a daemon job's JSONL stream. Critical-path time counts
what the iteration waited for: driving-thread phases in full, and of the
parallel actor lanes only the lane that finished last. CPU time sums every
lane, so it can exceed the wall clock while critical-path time cannot."""

from dataclasses import dataclass

CRITIC, ACTOR, SIMULATE, NEAR, ELITE = (
    "critic-train", "actor-train", "simulate", "near-sample", "elite-update")

# Forward + backward of one dense layer costs 3 multiply-adds per weight per
# sample: 6 FLOPs.
FLOPS_PER_WEIGHT_SAMPLE = 6


@dataclass
class CoreLayers:
    iterations: int = 0
    ns_iterations: int = 0
    critic_rounds: int = 0
    critic_s: float = 0.0
    actor_trainings: int = 0
    actor_crit_s: float = 0.0
    actor_lane_s: float = 0.0
    sim_crit_s: float = 0.0
    ns_s: float = 0.0
    elite_updates: int = 0
    elite_s: float = 0.0

    def crit_s(self):
        """Critical-path seconds of every named layer."""
        return self.critic_s + self.actor_crit_s + self.sim_crit_s + self.ns_s + self.elite_s

    def __add__(self, other):
        out = CoreLayers()
        for name in self.__dataclass_fields__:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out


def core_layers(iterations):
    """`iterations`: [{"wall_s", "near_sampling", "spans": [[phase, lane, s]]}]."""
    out = CoreLayers()
    for it in iterations:
        out.iterations += 1
        out.ns_iterations += bool(it["near_sampling"])
        lanes = {}  # lane -> [actor_s, sim_s]
        for phase, lane, seconds in it["spans"]:
            if phase == CRITIC:
                out.critic_rounds += 1
                out.critic_s += seconds
            elif phase == NEAR:
                out.ns_s += seconds
            elif phase == ELITE:
                out.elite_updates += 1
                out.elite_s += seconds
            elif phase in (ACTOR, SIMULATE):
                is_actor = phase == ACTOR
                if is_actor:
                    out.actor_trainings += 1
                    out.actor_lane_s += seconds
                if lane < 0:  # driving thread: on the critical path in full
                    if is_actor:
                        out.actor_crit_s += seconds
                    else:
                        out.sim_crit_s += seconds
                else:
                    lanes.setdefault(lane, [0.0, 0.0])[0 if is_actor else 1] += seconds
        if lanes:
            actor_s, sim_s = max(lanes.values(), key=lambda pair: pair[0] + pair[1])
            out.actor_crit_s += actor_s
            out.sim_crit_s += sim_s
    return out


def critic_gflops(critic_rounds, dim, metrics, hidden=(100, 100), batch=64, steps=50):
    """FLOPs of critic training computed from the net's shape (input 2*dim,
    the paper's 2x100 hidden layers, `metrics` outputs), not measured."""
    widths = [2 * dim, *hidden, metrics]
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    return critic_rounds * steps * batch * weights * FLOPS_PER_WEIGHT_SAMPLE / 1e9


@dataclass(frozen=True)
class Row:
    layer: str
    count: int
    crit_s: float  # None when the layer is off the critical path
    cpu_s: float  # None when not measured


def render_table(rows, wall_s, title=""):
    def num(v, width, suffix=""):
        return ("-" if v is None else f"{v:.{1 if suffix else 3}f}{suffix}").rjust(width)

    lines = [title] if title else []
    lines.append(f"{'layer':<26}{'count':>9}{'crit(s)':>11}{'cpu(s)':>11}{'share':>9}")
    for r in rows:
        share = None if r.crit_s is None or not wall_s else 100.0 * r.crit_s / wall_s
        lines.append(f"{r.layer:<26}{r.count:>9}{num(r.crit_s, 11)}{num(r.cpu_s, 11)}"
                     f"{num(share, 9, '%')}")
    lines.append(f"{'wall':<26}{'':>9}{num(wall_s, 11)}{'':>11}{num(100.0, 9, '%')}")
    return "\n".join(lines)
