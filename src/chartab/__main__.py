"""``python -m chartab``: the ``chartab`` command."""

from chartab.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
