"""Run the command-line front end: python -m sephash ARGS."""

from .cli import entry

entry()
