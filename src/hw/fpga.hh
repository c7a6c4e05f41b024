/**
 * @file
 * FPGA device model.
 *
 * Models exactly the properties the vectorized-sandbox design depends
 * on (§3.5, §4.2, §4.3):
 *  - one bitstream (image) resident at a time; programming replaces it;
 *  - erase is separate from programming and normally skippable;
 *  - an image packs several kernel slots, each occupying LUT/REG/BRAM/
 *    DSP resources next to a static wrapper (shell);
 *  - slots execute concurrently (one in-flight invocation per slot);
 *  - attached DRAM is split into banks with *data retention*: bank
 *    contents survive reprogramming, enabling the zero-copy function
 *    chain of Fig 13.
 */

#ifndef MOLECULE_HW_FPGA_HH
#define MOLECULE_HW_FPGA_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/status.hh"
#include "fault/state.hh"
#include "hw/calibration.hh"
#include "obs/trace.hh"
#include "sim/analysis.hh"
#include "sim/sync.hh"

namespace molecule::hw {

/** FPGA fabric resources (Table 4 accounting). */
struct FpgaResources
{
    long luts = 0;
    long regs = 0;
    long brams = 0;
    long dsps = 0;

    FpgaResources
    operator+(const FpgaResources &o) const
    {
        return {luts + o.luts, regs + o.regs, brams + o.brams,
                dsps + o.dsps};
    }

    FpgaResources &
    operator+=(const FpgaResources &o)
    {
        luts += o.luts;
        regs += o.regs;
        brams += o.brams;
        dsps += o.dsps;
        return *this;
    }

    /** True when this fits within @p budget component-wise. */
    bool
    fitsIn(const FpgaResources &budget) const
    {
        return luts <= budget.luts && regs <= budget.regs &&
               brams <= budget.brams && dsps <= budget.dsps;
    }

    /** AWS F1 UltraScale+ totals (Table 4). */
    static FpgaResources
    f1Totals()
    {
        return {calib::kF1TotalLuts, calib::kF1TotalRegs,
                calib::kF1TotalBrams, calib::kF1TotalDsps};
    }

    /**
     * Static wrapper (shell) cost providing isolation and the
     * vectorized-sandbox plumbing: ~5% of F1 LUTs plus fixed register,
     * BRAM and DSP overheads (§6.4, Table 4).
     */
    static FpgaResources
    wrapperOverhead()
    {
        return {long(calib::kF1TotalLuts * calib::kFpgaWrapperLutFraction),
                94600, 126, 67};
    }
};

/** One kernel packed into an image. */
struct KernelSlot
{
    std::string funcId;
    FpgaResources resources;
    /** DRAM bank statically assigned to this slot (-1: unassigned). */
    int dramBank = -1;
};

/**
 * A composed bitstream: wrapper + kernel slots.
 *
 * Images are immutable once composed; the vectorized-sandbox runtime
 * (runf) composes them from create(vector<...>) requests.
 */
struct FpgaImage
{
    std::uint64_t id = 0;
    std::vector<KernelSlot> slots;

    FpgaResources
    totalResources() const
    {
        FpgaResources total = FpgaResources::wrapperOverhead();
        for (const auto &s : slots)
            total += s.resources;
        return total;
    }

    bool
    contains(const std::string &funcId) const
    {
        for (const auto &s : slots)
            if (s.funcId == funcId)
                return true;
        return false;
    }
};

/** How the bitstream being programmed was obtained. */
enum class ProgramMode {
    /** Freshly composed: download + flash (Fig 10-c "Load-image"). */
    Cold,
    /** Bitstream cached host-side: flash only ("Warm-image"). */
    Cached,
};

/**
 * One FPGA card. See file header for the modelled behaviours.
 */
class FpgaDevice
{
  public:
    FpgaDevice(sim::Simulation &sim, int id, int hostPuId,
               FpgaResources totals, int dramBanks);

    int id() const { return id_; }

    /** PU whose (virtual) shim and runf instance manage this card. */
    int hostPuId() const { return hostPuId_; }

    const FpgaResources &totals() const { return totals_; }

    int dramBankCount() const { return int(banks_.size()); }

    /** @name Programming */
    ///@{

    /** Full-device erase (the Baseline path of Fig 10-c). */
    sim::Task<> erase(obs::SpanContext ctx = {});

    /**
     * Program @p image, replacing any resident image. Fails fatally if
     * the image does not fit the fabric (a composition bug, not a
     * runtime fault). When @p retainDram is true (data-retention
     * feature, §4.3) bank contents survive; otherwise banks are
     * cleared.
     *
     * @return ok, or FpgaReconfigFailed when an injected reconfig
     *         failure fires mid-flash: the flash time is spent, the
     *         slot is left erased (no resident image), and retained
     *         DRAM banks survive — recovery may retry program().
     */
    [[nodiscard]] sim::Task<core::Status>
    program(const FpgaImage &image, ProgramMode mode, bool retainDram,
            obs::SpanContext ctx = {});

    bool hasImage() const { return image_.has_value(); }

    const FpgaImage &image() const;

    /** True when @p funcId has a slot in the resident image. */
    bool resident(const std::string &funcId) const;
    ///@}

    /** @name Execution */
    ///@{

    /**
     * Run @p funcId's kernel for @p kernelTime. Queues if the slot is
     * already executing (one invocation in flight per slot); different
     * slots run concurrently. Fatal if the function is not resident.
     */
    sim::Task<> invoke(const std::string &funcId, sim::SimTime kernelTime,
                       obs::SpanContext ctx = {});
    ///@}

    /** @name DRAM banks with data retention */
    ///@{

    /** Write @p bytes tagged @p tag into @p bank (charges DRAM time). */
    sim::Task<> bankWrite(int bank, const std::string &tag,
                          std::uint64_t bytes, obs::SpanContext ctx = {});

    /**
     * Read the data tagged @p tag from @p bank.
     * @return the stored byte count, or nullopt when absent.
     */
    std::optional<std::uint64_t> bankPeek(int bank,
                                          const std::string &tag) const;

    /** Read @p bytes from @p bank (charges DRAM time). */
    sim::Task<> bankRead(int bank, std::uint64_t bytes,
                         obs::SpanContext ctx = {});

    /** Clear one bank (wrapper clears sensitive data, §4.3). */
    void bankClear(int bank);
    ///@}

    /** Arm injected reconfig failures (null: never fail). */
    void attachFaults(fault::FaultState *faults) { faults_ = faults; }

    /** @name Stats */
    ///@{
    std::int64_t programCount() const { return programCount_; }

    std::int64_t eraseCount() const { return eraseCount_; }
    ///@}

  private:
    struct Bank
    {
        std::map<std::string, std::uint64_t> data;
    };

    sim::SimTime dramAccessTime(std::uint64_t bytes) const;

    sim::Simulation &sim_;
    int id_;
    int hostPuId_;
    fault::FaultState *faults_ = nullptr;
    FpgaResources totals_;
    std::optional<FpgaImage> image_;
    /** One in-flight invocation per slot (index-aligned with image). */
    std::vector<std::unique_ptr<sim::Semaphore>> slotBusy_;
    std::vector<Bank> banks_;
    std::int64_t programCount_ = 0;
    std::int64_t eraseCount_ = 0;
    /** Conflict-detector cells: which image is resident, and whether
     * bank contents changed. A same-tick program()/invoke() (or
     * bankWrite()/bankPeek()) pair would resolve only by the event
     * tie-break — exactly what the analysis layer reports. */
    sim::analysis::Tracked<std::uint64_t> imageEpoch_{0, "fpga.image"};
    sim::analysis::Tracked<std::uint64_t> bankEpoch_{0, "fpga.dram"};
};

} // namespace molecule::hw

#endif // MOLECULE_HW_FPGA_HH
