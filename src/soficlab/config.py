"""Resource caps, configurable via environment variables."""

import os
from dataclasses import dataclass

ENV_BALL_CAP = "SOFICLAB_BALL_CAP"
ENV_RANK_CAP = "SOFICLAB_RANK_CAP"
ENV_PRIME_CEILING = "SOFICLAB_PRIME_CEILING"

DEFAULT_BALL_CAP = 10**6
DEFAULT_RANK_CAP = 256
DEFAULT_PRIME_CEILING = 10**4
DEFAULT_ITERATION_CAP = 200


@dataclass(frozen=True)
class ResourceLimits:
    """Hard caps on the size of constructed objects.

    ball_cap: maximum number of elements in an enumerated word-metric ball,
        and of points in a Folner box (checked before the box is built).
    rank_cap: maximum rank of a unitary matrix (amplification grows rank fast).
    prime_ceiling: largest prime scanned when searching for mod-p witnesses.
    iteration_cap: maximum number of amplification iterations per request.
    """

    ball_cap: int = DEFAULT_BALL_CAP
    rank_cap: int = DEFAULT_RANK_CAP
    prime_ceiling: int = DEFAULT_PRIME_CEILING
    iteration_cap: int = DEFAULT_ITERATION_CAP

    @classmethod
    def from_env(cls) -> "ResourceLimits":
        return cls(
            ball_cap=int(os.environ.get(ENV_BALL_CAP, DEFAULT_BALL_CAP)),
            rank_cap=int(os.environ.get(ENV_RANK_CAP, DEFAULT_RANK_CAP)),
            prime_ceiling=int(os.environ.get(ENV_PRIME_CEILING, DEFAULT_PRIME_CEILING)),
        )


def default_limits() -> ResourceLimits:
    return ResourceLimits.from_env()
