"""The benchmark workloads, as gridsde CLI commands.

Every input is a pure function of the workload name and the seed.  Only
sampled ensembles read the seed; the exhaustive ensemble and the
finite-volume solve have no random input.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("exhaustive", "sampled", "pde")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload pass.

    ``role`` is "density" for the commands that write a density CSV
    (simulate, fp-solve) and "verify" for the verify suites.
    ``path_steps`` counts the simulated paths times grid steps of the
    command's trajectory ensemble, from its inputs; it is 0 for commands
    that simulate no ensemble (fp-solve) or whose time is not dominated by
    one (lemmas, where the tower check walks Python path objects).
    """

    label: str
    argv: tuple[str, ...]
    role: str
    path_steps: int = 0


def commands(workload: str, seed: int) -> tuple[Command, ...]:
    """The commands of one pass of ``workload`` at ``seed``, in run order."""
    seed = str(int(seed))
    if workload == "exhaustive":
        return (
            Command(
                "simulate",
                ("simulate", "--n", "20", "--mode", "exhaustive", "--f=-x", "--h", "1"),
                "density",
                2**21 * 20,
            ),
            Command(
                "weakform",
                ("verify", "weakform", "--n", "18", "--mode", "exhaustive"),
                "verify",
                2**19 * 18,
            ),
            Command("lemmas", ("verify", "lemmas", "--n", "14"), "verify"),
        )
    if workload == "sampled":
        return (
            Command(
                "simulate",
                ("simulate", "--n", "64", "--mode", "sampled", "--samples", "400000",
                 "--seed", seed, "--f=-x", "--h", "1"),
                "density",
                400000 * 64,
            ),
            Command(
                "weakform",
                ("verify", "weakform", "--n", "64", "--mode", "sampled", "--samples", "200000",
                 "--seed", seed),
                "verify",
                200000 * 64,
            ),
        )
    if workload == "pde":
        return (
            Command("fp_solve", ("fp-solve", "--f=-x", "--h", "1", "--dx", "0.0078125"), "density"),
            Command(
                "crossval",
                ("verify", "crossval", "--n", "128", "--f=-x", "--h", "1", "--samples", "100000",
                 "--seed", seed),
                "verify",
                100000 * 128,
            ),
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
