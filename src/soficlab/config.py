"""Resource caps, configurable via environment variables."""

import os
from dataclasses import dataclass

ENV_BALL_CAP = "SOFICLAB_BALL_CAP"
ENV_RANK_CAP = "SOFICLAB_RANK_CAP"

DEFAULT_BALL_CAP = 10**6
DEFAULT_RANK_CAP = 256
ITERATION_CAP = 200  # amplification iterations per request; fixed


@dataclass(frozen=True)
class ResourceLimits:
    """Hard caps on the size of constructed objects.

    ball_cap: maximum number of elements in an enumerated word-metric ball,
        of points in a Folner box (checked before the box is built), of
        the point k of `demo sinfty` (checked before 2^k is built), and of
        the 2 * pairs * rank^2 entries `demo amplify` draws, and of the
        order p(p^2 - 1) of each SL(2, Z_p) the free-group prime search tries.
    rank_cap: maximum rank of a unitary matrix (amplification grows rank fast).
    """

    ball_cap: int = DEFAULT_BALL_CAP
    rank_cap: int = DEFAULT_RANK_CAP

    @classmethod
    def from_env(cls) -> "ResourceLimits":
        """The caps set in the environment, defaults elsewhere; ValueError
        naming the variable unless its value is an integer >= 1."""
        return cls(
            ball_cap=_env_cap(ENV_BALL_CAP, DEFAULT_BALL_CAP),
            rank_cap=_env_cap(ENV_RANK_CAP, DEFAULT_RANK_CAP),
        )


def _env_cap(name: str, default: int) -> int:
    text = os.environ.get(name, str(default))
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {text!r}")
    return value


def default_limits() -> ResourceLimits:
    """The caps in force: read from the environment at each call, which is
    the one place the library's caps come from."""
    return ResourceLimits.from_env()
