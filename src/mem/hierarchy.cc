#include "hierarchy.hh"

#include "util/logging.hh"

namespace rtm
{

namespace
{

/** A level's Table 4 parameters shrunk by the capacity divisor. */
TechParams
scaled(TechParams params, const HierarchyConfig &config)
{
    if (config.capacity_divisor == 0)
        rtm_fatal("capacity divisor must be >= 1");
    params.capacity_bytes /= config.capacity_divisor;
    return params;
}

CacheStats
sumStats(const std::vector<Cache> &caches)
{
    CacheStats sum;
    for (const Cache &c : caches) {
        const CacheStats &s = c.stats();
        sum.reads += s.reads;
        sum.writes += s.writes;
        sum.read_misses += s.read_misses;
        sum.write_misses += s.write_misses;
        sum.writebacks += s.writebacks;
    }
    return sum;
}

void
exportLevel(Telemetry &sink, const char *name, const CacheStats &s)
{
    std::string prefix = std::string("mem.") + name + ".";
    sink.counter(prefix + "accesses").add(s.accesses());
    sink.counter(prefix + "hits").add(s.accesses() - s.misses());
    sink.counter(prefix + "misses").add(s.misses());
    sink.counter(prefix + "writebacks").add(s.writebacks);
}

} // anonymous namespace

// --- front end -------------------------------------------------------

void
FrontEnd::validate(const HierarchyConfig &config)
{
    if (config.cores < 1)
        rtm_fatal("hierarchy needs at least one core");
    const TechParams l1 = scaled(l1Params(), config);
    uint64_t min_bytes = static_cast<uint64_t>(config.line_bytes) * 16;
    if (l1.capacity_bytes < min_bytes)
        rtm_fatal("capacity divisor leaves L1 below %llu bytes",
                  static_cast<unsigned long long>(min_bytes));
}

FrontEnd::FrontEnd(const HierarchyConfig &config)
{
    validate(config);
    const TechParams l1 = scaled(l1Params(), config);
    const TechParams l2 = scaled(l2Params(), config);
    const int clusters = (config.cores + 1) / 2;
    l1_.reserve(static_cast<size_t>(config.cores));
    l2_.reserve(static_cast<size_t>(clusters));
    for (int c = 0; c < config.cores; ++c)
        l1_.emplace_back(l1.capacity_bytes, config.l1_ways,
                         config.line_bytes);
    for (int cl = 0; cl < clusters; ++cl)
        l2_.emplace_back(l2.capacity_bytes, config.l2_ways,
                         config.line_bytes);
}

const Cache &
FrontEnd::l1(int core) const
{
    if (core < 0 || core >= static_cast<int>(l1_.size()))
        rtm_panic("core %d out of range", core);
    return l1_[static_cast<size_t>(core)];
}

const Cache &
FrontEnd::l2(int cluster) const
{
    if (cluster < 0 || cluster >= static_cast<int>(l2_.size()))
        rtm_panic("cluster %d out of range", cluster);
    return l2_[static_cast<size_t>(cluster)];
}

CacheStats
FrontEnd::l1Totals() const
{
    return sumStats(l1_);
}

CacheStats
FrontEnd::l2Totals() const
{
    return sumStats(l2_);
}

FrontEndAccess
FrontEnd::access(int core, Addr addr, bool is_write)
{
    if (core < 0 || core >= static_cast<int>(l1_.size()))
        rtm_panic("core %d out of range", core);
    FrontEndAccess fe;
    CacheAccessResult r1 =
        l1_[static_cast<size_t>(core)].access(addr, is_write);
    if (r1.hit) {
        fe.l1_hit = true;
        return fe;
    }
    // A dirty L1 victim writes through to L2 (energy only; the write
    // happens off the critical path).
    Cache &l2c = l2_[static_cast<size_t>(core / 2)];
    if (r1.writeback) {
        l2c.access(r1.victim_addr, true);
        fe.l1_writeback = true;
    }
    CacheAccessResult r2 = l2c.access(addr, is_write);
    fe.l2_hit = r2.hit;
    fe.l2_writeback = r2.writeback;
    fe.l2_victim = r2.victim_addr;
    return fe;
}

void
exportFrontEndTelemetry(Telemetry &sink, const CacheStats &l1,
                        const CacheStats &l2)
{
    exportLevel(sink, "l1", l1);
    exportLevel(sink, "l2", l2);
}

// --- back end --------------------------------------------------------

BackEnd::BackEnd(const HierarchyConfig &config,
                 const PositionErrorModel *model)
    : config_(config), l1_params_(scaled(l1Params(), config)),
      l2_params_(scaled(l2Params(), config)),
      l3_params_(scaled(l3For(config.llc_tech), config)),
      dram_(dramParams())
{
    l3_ = std::make_unique<Cache>(l3_params_.capacity_bytes,
                                  config_.llc_ways,
                                  config_.line_bytes);

    if (config_.llc_tech == MemTech::Racetrack ||
        config_.llc_tech == MemTech::RacetrackIdeal) {
        if (!model)
            rtm_fatal("racetrack LLC needs a position-error model");
        RmBankConfig bank;
        bank.line_frames = l3_params_.capacity_bytes /
                           static_cast<uint64_t>(config_.line_bytes);
        bank.frames_per_group = config_.frames_per_group;
        bank.seg_len = config_.seg_len;
        bank.scheme = config_.scheme;
        // A uniform / llc-level scheme override replaces the bank's
        // base scheme outright (timing and planning included);
        // region-scoped overrides stay classification-only.
        const ProtectionDomain &llc = config_.protection.llcDomain();
        if (llc.has_scheme)
            bank.scheme = llc.scheme;
        bank.protection = config_.protection;
        bank.mttf_target_s = config_.mttf_target_s;
        bank.head_policy = config_.head_policy;
        bank.placement = config_.placement;
        bank.model_contention = config_.model_contention;
        bank.use_plan_memo = config_.use_plan_memo;
        bank.telemetry = config_.telemetry;
        rm_bank_ = std::make_unique<RmBank>(bank, model, l3_params_);
    }
}

void
BackEnd::exportTelemetry(Telemetry &sink) const
{
    exportLevel(sink, "l3", l3_->stats());
    sink.counter("mem.dram.accesses").add(dram_accesses_);
    sink.gauge("mem.dram.energy_joules").set(dram_energy_);
    if (rm_bank_)
        rm_bank_->exportTelemetry(sink);
}

double
BackEnd::totalLeakageWatts() const
{
    double watts = l1_params_.leakage_watts *
                   static_cast<double>(config_.cores);
    watts += l2_params_.leakage_watts *
             static_cast<double>((config_.cores + 1) / 2);
    watts += l3_params_.leakage_watts;
    return watts;
}

HierarchyAccess
BackEnd::access(const FrontEndAccess &fe, Addr addr, bool is_write,
                Cycles now)
{
    HierarchyAccess out;

    // --- L1 -----------------------------------------------------------
    out.latency += is_write ? l1_params_.write_latency
                            : l1_params_.read_latency;
    out.energy += is_write ? l1_params_.write_energy
                           : l1_params_.read_energy;
    if (fe.l1_hit) {
        out.l1_hit = true;
        return out;
    }
    if (fe.l1_writeback)
        out.energy += l2_params_.write_energy;

    // --- L2 -----------------------------------------------------------
    out.latency += is_write ? l2_params_.write_latency
                            : l2_params_.read_latency;
    out.energy += is_write ? l2_params_.write_energy
                           : l2_params_.read_energy;
    if (fe.l2_hit) {
        out.l2_hit = true;
        return out;
    }

    // --- L3 -----------------------------------------------------------
    CacheAccessResult r3 = l3_->access(addr, is_write);
    out.latency += is_write ? l3_params_.write_latency
                            : l3_params_.read_latency;
    out.energy += is_write ? l3_params_.write_energy
                           : l3_params_.read_energy;
    if (rm_bank_) {
        ShiftCost shift =
            rm_bank_->accessFrame(r3.frame_index, now);
        // Pooled codewords fetch their shared redundancy region on
        // every write and, unless the domain reads two-tier, on
        // every read (the frequent EDC-clean case skips it).
        const ProtectionDomain &pd =
            rm_bank_->domainFor(r3.frame_index);
        if (pd.codeword_frames > 1 && (is_write || !pd.two_tier)) {
            ShiftCost red =
                rm_bank_->accessRedundancy(r3.frame_index, now);
            shift.latency += red.latency;
            shift.energy += red.energy;
        }
        if (config_.llc_tech == MemTech::Racetrack) {
            out.latency += shift.latency;
            out.shift_cycles = shift.latency;
            out.energy += shift.energy;
        }
        // RacetrackIdeal: shifts tracked but free (Fig. 16 "ideal").
    }
    if (fe.l2_writeback) {
        // L2 victim installs into L3 (off critical path, energy
        // plus a racetrack shift for its frame if applicable).
        CacheAccessResult wb = l3_->access(fe.l2_victim, true);
        out.energy += l3_params_.write_energy;
        if (rm_bank_) {
            ShiftCost shift =
                rm_bank_->accessFrame(wb.frame_index, now);
            // The install is a write: a pooled codeword always
            // updates its redundancy region.
            const ProtectionDomain &pd =
                rm_bank_->domainFor(wb.frame_index);
            if (pd.codeword_frames > 1) {
                ShiftCost red =
                    rm_bank_->accessRedundancy(wb.frame_index, now);
                shift.energy += red.energy;
            }
            if (config_.llc_tech == MemTech::Racetrack)
                out.energy += shift.energy;
        }
        if (wb.writeback) {
            ++dram_accesses_;
            dram_energy_ += dram_.access_energy;
        }
    }
    if (r3.hit) {
        out.l3_hit = true;
        return out;
    }

    // --- DRAM ---------------------------------------------------------
    out.dram_access = true;
    ++dram_accesses_;
    out.latency += dram_.access_latency;
    out.energy += dram_.access_energy;
    dram_energy_ += dram_.access_energy;
    if (r3.writeback) {
        ++dram_accesses_;
        dram_energy_ += dram_.access_energy;
        out.energy += dram_.access_energy;
    }
    return out;
}

// --- hierarchy -------------------------------------------------------

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     const PositionErrorModel *model)
    : config_(config), front_(config), back_(config, model)
{
}

void
Hierarchy::exportTelemetry(Telemetry &sink) const
{
    exportFrontEndTelemetry(sink, front_.l1Totals(),
                            front_.l2Totals());
    back_.exportTelemetry(sink);
}

} // namespace rtm
