"""`python -m pdc`: the `pdc` command, also from a source checkout
without installing (PYTHONPATH=src python -m pdc check-all)."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
