"""``python -m repro.experiments`` entry point."""

from repro.experiments.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
