/**
 * @file
 * The unified graded-prediction API every predictor family in this
 * repository implements.
 *
 * The paper's thesis is that confidence can be read off a predictor's
 * existing state for free; this interface makes that a first-class
 * property of *any* predictor: predict() returns a Prediction carrying
 * both the architectural answer (taken) and a confidence grade. A
 * host with intrinsic confidence grades its own predictions — the
 * storage-free observer on TAGE, self-confidence on neural predictors
 * — and a confidence estimator (EstimatedPredictor) can replace that
 * grade on any host: JRS counter tables on gshare, or the blind
 * control.
 *
 * Concrete predictors live next to their families:
 *  - tage/graded_tage.hpp             TAGE and L-TAGE (storage-free classes)
 *  - baseline/<family>_predictor.hpp  gshare, bimodal, perceptron, O-GEHL
 *  - core/estimators.hpp              the blind estimator
 *  - baseline/jrs_estimator.hpp       the JRS counter-table estimator
 * and are usually constructed through the string-spec registry
 * (sim/registry.hpp): makePredictor("tage64k+prob7+sfc").
 */

#ifndef TAGECON_CORE_GRADED_PREDICTOR_HPP
#define TAGECON_CORE_GRADED_PREDICTOR_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/prediction_class.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/**
 * One graded prediction: the architectural direction plus the
 * confidence grade attached to it, and an opaque payload slot the
 * producing predictor may use to route lookup state to the paired
 * update() call.
 */
struct Prediction {
    /** Predicted direction, delivered to the front end. */
    bool taken = false;

    /** The 3-level confidence grade (Sec. 6.1 split for TAGE). */
    ConfidenceLevel confidence = ConfidenceLevel::High;

    /**
     * The 7-class storage-free grade when the predictor can produce it
     * (TAGE family); representativeClass(confidence) otherwise, so the
     * class is always consistent with the level.
     */
    PredictionClass cls = PredictionClass::HighConfBim;

    /**
     * Opaque, predictor-owned slot. Consumers must pass it back
     * unchanged in update(); they must not interpret it.
     */
    uint64_t payload = 0;
};

/**
 * A two-way graded prediction: @p high picks the High or Low level,
 * and the class is that level's representative — the grade of every
 * family without TAGE's 7 classes.
 */
inline Prediction
binaryPrediction(bool taken, bool high)
{
    Prediction p;
    p.taken = taken;
    p.confidence = high ? ConfidenceLevel::High : ConfidenceLevel::Low;
    p.cls = representativeClass(p.confidence);
    return p;
}

/**
 * A conditional branch predictor whose predictions are graded with
 * confidence. Drive it in strictly alternating predict/update pairs
 * per branch:
 *
 *   Prediction p = predictor.predict(pc);
 *   ... consume p.taken, speculate according to p.confidence ...
 *   predictor.update(pc, p, actual_taken);
 *
 * All six predictor families (TAGE, L-TAGE, gshare, bimodal,
 * perceptron, O-GEHL) implement this interface, which is what lets
 * sim/experiment.hpp drive arbitrary predictor x estimator x workload
 * combinations through one generic loop.
 */
class GradedPredictor
{
  public:
    virtual ~GradedPredictor() = default;

    /** Predict and grade the branch at @p pc. */
    virtual Prediction predict(uint64_t pc) = 0;

    /**
     * Train with the resolved outcome. @p p must be the Prediction
     * returned by the immediately preceding predict(pc).
     */
    virtual void update(uint64_t pc, const Prediction& p, bool taken) = 0;

    /**
     * True when predictMany() is a genuinely batched implementation
     * rather than the scalar fallback loop. Callers may route through
     * predictMany() unconditionally — the fallback is bit-identical —
     * so this only informs reporting and gating decisions.
     */
    virtual bool hasBatchedPredict() const { return false; }

    /**
     * Fused batched step over a batch of resolved branches: for each
     * element k, out[k] receives the Prediction the scalar
     * predict(pcs[k]) would have produced at that point, and the
     * predictor trains with taken[k] (nonzero = taken). The contract
     * is bit-identity with the scalar predict/update loop — including
     * predictions inside the batch observing earlier elements'
     * training. Trace replay and the serving engine drive this;
     * batched implementations (the TAGE family) precompute and
     * prefetch the whole batch's table accesses first.
     */
    virtual void
    predictMany(std::span<const uint64_t> pcs,
                std::span<const uint8_t> taken, std::span<Prediction> out)
    {
        for (size_t k = 0; k < pcs.size(); ++k) {
            out[k] = predict(pcs[k]);
            update(pcs[k], out[k], taken[k] != 0);
        }
    }

    /** Total storage in bits, including any attached estimator. */
    virtual uint64_t storageBits() const = 0;

    /**
     * Reset all state to post-construction values. The display name
     * (setName()) is not state: a registry-stamped name survives.
     */
    virtual void reset() = 0;

    /**
     * True when predict() fills the confidence grade from the
     * predictor's own state (storage-free / self confidence) rather
     * than defaulting it. A "+sfc" spec requires this and resolves to
     * the predictor itself.
     */
    virtual bool hasIntrinsicConfidence() const { return false; }

    /**
     * Tagged-entry allocations performed so far; 0 for predictors
     * without an allocation mechanism. Surfaced in RunResult.
     */
    virtual uint64_t allocations() const { return 0; }

    /**
     * Current log2(1/p) of the probabilistic-saturation automaton;
     * 0 when the predictor has none. Surfaced in RunResult.
     */
    virtual unsigned satLog2Prob() const { return 0; }

    /**
     * Serialize the complete architectural state into @p out so a
     * restore()d predictor continues bit-identically to one that never
     * stopped. Every family supports it and embeds a geometry
     * fingerprint so restore() can reject a blob from a
     * differently-configured predictor; false (with the reason in
     * @p error) is left for a state that cannot be written. Checkpoint
     * framing (magic/version/digest) is layered on top by
     * serve/checkpoint.hpp.
     */
    virtual bool snapshot(StateWriter& out, std::string& error) const = 0;

    /**
     * Replace the predictor's state with one written by snapshot() on
     * an identically-configured instance. A successful restore
     * overwrites every piece of architectural state, so restoring into
     * a used instance equals restoring into a fresh one; the serving
     * engine relies on this to restore an evicted stream into the
     * object another stream just vacated. On failure (geometry
     * mismatch, truncated or corrupt payload, a value snapshot() never
     * writes) the predictor is left reset() and false is returned with
     * the reason in @p error.
     */
    virtual bool restore(StateReader& in, std::string& error) = 0;

    /**
     * Display name: the registry spec when built via makePredictor(),
     * the family default otherwise.
     */
    std::string
    name() const
    {
        return displayName_.empty() ? defaultName() : displayName_;
    }

    /** Override the display name (the registry stamps the spec here). */
    void setName(std::string name) { displayName_ = std::move(name); }

  protected:
    /** Family name used when no display name was stamped. */
    virtual std::string defaultName() const = 0;

  private:
    std::string displayName_;
};

/**
 * A confidence estimator attachable to any GradedPredictor via
 * EstimatedPredictor. grade() is consulted once per prediction,
 * onResolve() once per resolved branch, in order. An estimator never
 * feeds back into its host: it reads the host's predictions and the
 * outcomes, and nothing the host does depends on it. Its state rides
 * in the host's checkpoint, after the host's own.
 */
class ConfidenceEstimator
{
  public:
    virtual ~ConfidenceEstimator() = default;

    /** Grade the prediction the host just produced for @p pc. */
    virtual ConfidenceLevel grade(uint64_t pc, const Prediction& p) = 0;

    /** Observe the resolved branch (training, history advance). */
    virtual void onResolve(uint64_t pc, const Prediction& p,
                           bool taken) = 0;

    /** Estimator name, appended to the host name ("jrs", "blind"...). */
    virtual std::string name() const = 0;

    /** Extra storage the estimator costs, in bits (0 = storage-free). */
    virtual uint64_t storageBits() const = 0;

    /** Reset estimator state. */
    virtual void reset() = 0;

    /** Serialize the state (none when storage-free), fingerprinted. */
    virtual void saveState(StateWriter& out) const = 0;

    /**
     * Restore state written by saveState(); false with the reason in
     * @p error when it is truncated, from another geometry or carries
     * a value saveState() never writes.
     */
    virtual bool loadState(StateReader& in, std::string& error) = 0;
};

/**
 * Decorator composing a host predictor with a confidence estimator:
 * predictions come from the host, the grade from the estimator, which
 * replaces both the host's level and its class (the host's detailed
 * classes next to a foreign level would make the per-class statistics
 * describe neither grading scheme).
 */
class EstimatedPredictor : public GradedPredictor
{
  public:
    EstimatedPredictor(std::unique_ptr<GradedPredictor> host,
                       std::unique_ptr<ConfidenceEstimator> estimator)
        : host_(std::move(host)), estimator_(std::move(estimator))
    {
    }

    Prediction
    predict(uint64_t pc) override
    {
        Prediction p = host_->predict(pc);
        regrade(pc, p);
        return p;
    }

    void
    update(uint64_t pc, const Prediction& p, bool taken) override
    {
        estimator_->onResolve(pc, p, taken);
        host_->update(pc, p, taken);
    }

    /** Batched exactly when the host is. */
    bool
    hasBatchedPredict() const override
    {
        return host_->hasBatchedPredict();
    }

    /**
     * The host's batched step, then grade()/onResolve() per element in
     * order. Bit-identical to the scalar loop because no host's
     * update() reads the confidence or class the estimator rewrites,
     * and the estimator never feeds back into the host.
     */
    void
    predictMany(std::span<const uint64_t> pcs,
                std::span<const uint8_t> taken,
                std::span<Prediction> out) override
    {
        host_->predictMany(pcs, taken, out);
        for (size_t k = 0; k < pcs.size(); ++k) {
            regrade(pcs[k], out[k]);
            estimator_->onResolve(pcs[k], out[k], taken[k] != 0);
        }
    }

    uint64_t
    storageBits() const override
    {
        return host_->storageBits() + estimator_->storageBits();
    }

    void
    reset() override
    {
        host_->reset();
        estimator_->reset();
    }

    /** The estimator fully determines the grade. */
    bool hasIntrinsicConfidence() const override { return true; }

    uint64_t allocations() const override { return host_->allocations(); }

    unsigned satLog2Prob() const override { return host_->satLog2Prob(); }

    /** The host's state, then the estimator's. */
    bool
    snapshot(StateWriter& out, std::string& error) const override
    {
        if (!host_->snapshot(out, error))
            return false;
        estimator_->saveState(out);
        return true;
    }

    bool
    restore(StateReader& in, std::string& error) override
    {
        if (host_->restore(in, error) && estimator_->loadState(in, error))
            return true;
        reset();
        return false;
    }

    /** The wrapped host predictor. */
    const GradedPredictor& host() const { return *host_; }

    /** The attached estimator. */
    const ConfidenceEstimator& estimator() const { return *estimator_; }

  protected:
    std::string
    defaultName() const override
    {
        return host_->name() + "+" + estimator_->name();
    }

  private:
    /** Replace the host's level and class with the estimator's grade. */
    void
    regrade(uint64_t pc, Prediction& p)
    {
        p.confidence = estimator_->grade(pc, p);
        p.cls = representativeClass(p.confidence);
    }

    std::unique_ptr<GradedPredictor> host_;
    std::unique_ptr<ConfidenceEstimator> estimator_;
};

} // namespace tagecon

#endif // TAGECON_CORE_GRADED_PREDICTOR_HPP
