"""``python -m conespec``: the ``conespec`` command."""

from .cli import console

console()
