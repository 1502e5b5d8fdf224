"""The benchmark's four workloads.

Each workload is one full ``fedasync run`` configuration (every key that
applies to it, written in the form the program echoes back in its file
headers) plus how many distinct seeds one round of calls cycles through.
A run makes whole rounds only, so every run attempts the same calls in
the same order; ``--seed S`` gives call j of a round the config seed
``1000 * S + j * repeats``, so no two calls share a repetition seed.
"""

from __future__ import annotations

from dataclasses import dataclass


def _config(text: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in text.split())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict[str, str]
    calls_per_round: int
    # quadratic only: check the final loss against the least-squares optimum
    optimum_check: bool = False

    @property
    def repeats(self) -> int:
        return int(self.config["repeats"])

    @property
    def in_process(self) -> bool:
        """Runs in one thread, so reruns with one seed are byte-identical."""
        return self.config["algorithm"] != "fedasync-net"

    def call_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + j * self.repeats for j in range(self.calls_per_round)]

    def argv(self, out_dir: str, call_seed: int) -> list[str]:
        tokens = [f"{k}={v}" for k, v in self.config.items()]
        return ["run", "--out", out_dir, *tokens, f"seed={call_seed}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sampled-quad",
            why="criterion-05 regime: local SGD steps and apply_update take the time; "
            "evaluation, event heap and transport idle; several repetitions per call",
            config=_config(
                "algorithm=fedasync-sampled task=quadratic n_workers=10 total_epochs=600 "
                "repeats=4 eval_every=5 n_samples=1000 dim=10 noise_std=0.1 eval_frac=0.2 "
                "classes_per_device=1 alpha=0.1 strategy=polynomial poly_a=0.5 "
                "max_staleness=4 gamma=0.1 rho=0.005 h_min=5 h_max=15 batch_size=4 "
                "threshold_frac=0.01"
            ),
            calls_per_round=6,
            optimum_check=True,
        ),
        Workload(
            name="latency-mlp-eval",
            why="event-driven mode with a full training-set evaluation after every "
            "update and rejected stale pushes; bypasses transport and repetitions",
            config=_config(
                "algorithm=fedasync-latency task=mlp n_workers=10 total_epochs=200 "
                "repeats=1 eval_every=1 n_samples=1000 dim=10 n_classes=3 sep=3.0 "
                "hidden=16 eval_frac=0.2 classes_per_device=0 alpha=0.1 strategy=hinge "
                "hinge_a=2.0 hinge_b=1 max_staleness=4 gamma=0.1 rho=0.005 h_min=5 "
                "h_max=15 batch_size=50 delay_kind=exponential compute_means=1.0 "
                "network_mean=0.1 threshold_frac=0.5"
            ),
            calls_per_round=16,
        ),
        Workload(
            name="fedavg-mlp-rounds",
            why="synchronous rounds of k devices averaged on the server, ~1.6k "
            "parameters, many rounds, sparse evaluation; round history grows memory",
            config=_config(
                "algorithm=fedavg task=mlp n_workers=10 total_epochs=600 repeats=1 "
                "eval_every=10 n_samples=1000 dim=10 n_classes=4 sep=3.0 hidden=105 "
                "eval_frac=0.2 classes_per_device=0 gamma=0.1 batch_size=20 k=2 "
                "local_steps=10 threshold_frac=0.15"
            ),
            calls_per_round=8,
        ),
        Workload(
            name="net-loopback",
            why="TCP loopback with 2 worker threads and K=1: the time goes into the "
            "socket conversation, evaluation sits on the updater's path",
            config=_config(
                "algorithm=fedasync-net task=quadratic n_workers=2 total_epochs=40 "
                "repeats=1 eval_every=1 n_samples=1000 dim=10 noise_std=0.1 "
                "eval_frac=0.2 classes_per_device=0 alpha=0.3 strategy=constant "
                "max_staleness=1 gamma=0.1 rho=0.005 h_min=5 h_max=15 batch_size=20 "
                "threshold_frac=0.01"
            ),
            calls_per_round=4,
        ),
    )
}
