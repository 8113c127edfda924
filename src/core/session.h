#ifndef QUARRY_CORE_SESSION_H_
#define QUARRY_CORE_SESSION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/quarry.h"

namespace quarry::core {

/// \brief Design-session persistence over the metadata repository.
///
/// The paper's Communication & Metadata layer "serves as a repository for
/// the metadata that are produced and used during the DW design lifecycle"
/// — which is exactly what makes a design session restorable: the domain
/// ontology, the source schema mappings and every accepted xRQ requirement
/// are sufficient to rebuild the unified design deterministically.

/// Dumps the instance's metadata repository (ontology, mappings, xRQ
/// stream, partial + unified designs) as JSON collections under `dir`
/// (which must exist). The snapshot is atomic (docs/ROBUSTNESS.md §6): a
/// crash mid-save leaves the previous session state fully loadable.
Status SaveSession(const Quarry& quarry, const std::string& dir);

/// Restores a session saved with SaveSession: re-creates the Quarry over
/// `source` from the stored ontology + mappings, then re-interprets and
/// re-integrates the stored requirements in their original order. The
/// resulting unified design is byte-identical to the saved one (the whole
/// pipeline is deterministic), which Load verifies against the stored
/// unified xMD. Loading performs startup recovery — WAL replay over the
/// last committed snapshot, torn-tail discard, quarantine of corrupt
/// collection files — and reports it via `stats` (also surfaced as
/// Quarry::recovery_report().metadata on the returned instance).
Result<std::unique_ptr<Quarry>> LoadSession(
    const std::string& dir, const storage::Database* source,
    QuarryConfig config = {}, docstore::RecoveryStats* stats = nullptr);

/// LoadSession + Quarry::EnableDurability(dir): restores the session and
/// keeps it crash-safe on the same directory, so every subsequent design
/// step is WAL-logged and the session survives a kill at any point.
Result<std::unique_ptr<Quarry>> OpenDurableSession(
    const std::string& dir, const storage::Database* source,
    QuarryConfig config = {}, docstore::RecoveryStats* stats = nullptr);

/// Subdirectory of a session directory holding the durable warehouse
/// generations (docs/ROBUSTNESS.md §10). The docstore scan ignores
/// subdirectories, so both substrates share one session directory.
inline constexpr char kWarehouseSubdir[] = "warehouse";

/// OpenDurableSession + Quarry::EnableServingDurability(dir + "/warehouse"):
/// the full cold-start path. Metadata recovery rebuilds the unified design;
/// warehouse recovery republishes the newest intact generation, so
/// SubmitQuery serves immediately — no ETL rebuild between restart and the
/// first answered query. `report` (nullable) receives both recovery halves
/// (also surfaced as Quarry::recovery_report() on the returned instance).
Result<std::unique_ptr<Quarry>> OpenDurableServingSession(
    const std::string& dir, const storage::Database* source,
    QuarryConfig config = {}, RecoveryReport* report = nullptr);

}  // namespace quarry::core

#endif  // QUARRY_CORE_SESSION_H_
