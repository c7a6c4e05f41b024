// Fixture: seeded hand-rolled-spares true positives — reuse lists
// written out as plain vectors instead of the sim/spares.hh types.
class LocalOs
{
    std::vector<Fifos::node_type> spareFifos_;
    std::vector<std::unique_ptr<Process>> spareProcs_;
    std::vector<std::unique_ptr<Process>> deadProcs_;
};
