"""``python -m repro.telemetry`` — the report CLI."""

from repro.telemetry.report import main

if __name__ == "__main__":
    raise SystemExit(main())
