// Fixture: the same lists kept in the sim/spares.hh types, next to
// vectors whose names only look like reuse lists.
class LocalOs
{
    sim::Spares<Fifos::node_type> spareFifos_;
    sim::Spares<std::unique_ptr<Process>> spareProcs_;
    sim::Graveyard<Process> deadProcs_;
    std::vector<SimTime> deadlines_;
};
