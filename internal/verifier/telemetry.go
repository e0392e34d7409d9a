package verifier

import (
	"vnfguard/internal/obs"
	"vnfguard/internal/translog"
)

// Verdict telemetry: every trust decision the Verification Manager
// commits to its transparency log is also counted here, labelled by
// outcome, so an operator can watch attestation pass/fail rates and
// credential lifecycle churn without scraping the log itself. Counters
// are pre-resolved package handles — the audit paths never touch the
// registry map (see internal/translog/telemetry.go for the contract).

var (
	verdictHelp     = "Trust decisions committed to the transparency log, labelled by outcome."
	mVerdictEnroll  = obs.Default().Counter("verifier_verdicts_total", verdictHelp, "outcome", "enroll")
	mVerdictAttOK   = obs.Default().Counter("verifier_verdicts_total", verdictHelp, "outcome", "attest_ok")
	mVerdictAttFail = obs.Default().Counter("verifier_verdicts_total", verdictHelp, "outcome", "attest_fail")
	mVerdictProv    = obs.Default().Counter("verifier_verdicts_total", verdictHelp, "outcome", "provision")
	mVerdictRevoke  = obs.Default().Counter("verifier_verdicts_total", verdictHelp, "outcome", "revoke")
)

// Step telemetry: the Manager observes each workflow step of Figure 1
// it runs into one verifier_step_seconds series. A caller timing its own
// run (core.RunWorkflow, experiment E6) reads a step's time as the Sum()
// delta of the series around its call.
var (
	stepHelp = "Verification Manager workflow step latency (Figure 1), labelled by step."
	// StepHostEvidence times step 1: collecting a host's attestation evidence.
	StepHostEvidence = obs.Default().Histogram("verifier_step_seconds", stepHelp, "step", "host_evidence")
	// StepHostAppraisal times step 2: verifying the host quote and appraising its IML.
	StepHostAppraisal = obs.Default().Histogram("verifier_step_seconds", stepHelp, "step", "host_appraisal")
	// StepVNFRA times steps 3–4: remote attestation of one VNF enclave.
	StepVNFRA = obs.Default().Histogram("verifier_step_seconds", stepHelp, "step", "vnf_ra")
	// StepProvision times step 5: generating and provisioning one VNF's credentials.
	StepProvision = obs.Default().Histogram("verifier_step_seconds", stepHelp, "step", "provision")
)

// countVerdict bumps the outcome counter for one audit entry.
func countVerdict(t translog.EntryType) {
	switch t {
	case translog.EntryEnroll:
		mVerdictEnroll.Inc()
	case translog.EntryAttestOK:
		mVerdictAttOK.Inc()
	case translog.EntryAttestFail:
		mVerdictAttFail.Inc()
	case translog.EntryProvision:
		mVerdictProv.Inc()
	case translog.EntryRevoke:
		mVerdictRevoke.Inc()
	}
}
