"""``python -m ghztp`` and the ``ghztp`` console script.

``net party`` goes to :mod:`ghztp.party` before :mod:`ghztp.cli` is
imported, so a party process never imports the simulator, ``dataclasses``
or ``typing``.
"""

import sys


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:2] == ["net", "party"]:
        from .party import main as party_main

        return party_main(args[2:])
    from .cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main())
