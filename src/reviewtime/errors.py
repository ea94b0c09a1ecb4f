"""Exception types shared across the pipeline."""


class ReviewTimeError(Exception):
    """Base class for all pipeline errors."""


# --- ingest / transport ---

class MalformedJsonError(ReviewTimeError):
    pass


class HttpError(ReviewTimeError):
    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class NotFoundError(HttpError):
    pass


class SchemaError(ReviewTimeError):
    pass


# --- dataset ---

class NotCompletedError(ReviewTimeError):
    pass


# --- numerics / learning ---

class EmptyInputError(ReviewTimeError):
    pass


class EmptyTrainingSetError(ReviewTimeError):
    pass


class UnsupportedEstimatorError(ReviewTimeError):
    pass


class ConvergenceFailureError(ReviewTimeError):
    pass


class FeatureMismatchError(ReviewTimeError):
    pass


class AllPointsFailedError(ReviewTimeError):
    pass


# --- evaluation ---

class TooFewRecordsError(ReviewTimeError):
    pass


class LengthMismatchError(ReviewTimeError):
    pass


class NonPositiveActualError(ReviewTimeError):
    pass


class NonFinitePredictionError(ReviewTimeError):
    pass


# --- stats ---

class AllZeroDifferencesError(ReviewTimeError):
    pass


class TooFewPairsError(ReviewTimeError):
    pass


class ZeroPooledVarianceError(ReviewTimeError):
    pass


class TooFewGroupsError(ReviewTimeError):
    pass


class TooFewObservationsError(ReviewTimeError):
    pass


# --- importance ---

class UnknownUnitError(ReviewTimeError):
    pass


# --- cli / config ---

class ConfigError(ReviewTimeError):
    pass
