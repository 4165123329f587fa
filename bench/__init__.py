"""The repository's benchmark: ``python -m bench`` (see ``README.md``)."""
