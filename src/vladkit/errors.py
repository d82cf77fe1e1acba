"""The one exception raised on bad data; the CLI maps it to exit code 2."""


class VladkitError(Exception):
    pass
