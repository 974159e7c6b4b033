"""Exception hierarchy shared by all oncograph modules."""


class OncographError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateNode(OncographError):
    pass


class DuplicateEdge(OncographError):
    pass


class MissingEndpoint(OncographError):
    pass


class InvalidLabel(OncographError):
    pass


class UnknownNode(OncographError):
    pass


class UnknownDisease(UnknownNode):
    pass


class UnknownMutation(UnknownNode):
    pass


class UnknownGene(UnknownNode):
    pass


class InvalidThresholds(OncographError):
    pass


class InvalidPercent(OncographError):
    pass


class EmptyPopulation(OncographError):
    pass


class NotPatientMutation(OncographError):
    """A mutation that the patient does not carry; names both."""

    def __init__(self, mutation, patient_id):
        super().__init__(f"{mutation} is not a mutation of patient {patient_id}")


class Untargetable(OncographError):
    """A target mutation has no drug acting on it; names the mutation."""

    def __init__(self, mutation):
        super().__init__(f"untargetable mutation {mutation}")


class MissingColumn(OncographError):
    pass


class InvalidEncoding(OncographError):
    """An input file is not UTF-8; the message names the file and line."""
