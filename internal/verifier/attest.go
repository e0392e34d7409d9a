package verifier

import (
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/sgx"
)

// HostAppraisal is the outcome of steps 1–2 for one host.
type HostAppraisal struct {
	Host        string
	Trusted     bool
	QuoteStatus ias.QuoteStatus
	IMAResult   ima.AppraisalResult
	TPMVerified bool
	// Findings collects human-readable failure reasons.
	Findings []string
	// IMLEntries counts appraised measurements.
	IMLEntries int
	At         time.Time
	// errs holds the error behind each finding.
	errs []error
}

// Err joins the errors behind the findings, nil for a trusted host. Each
// is errors.Is-able as its sentinel: ErrNonceMismatch, ErrIASReport,
// ErrQuoteStatus, ErrEvidenceBinding, ErrUnexpectedMR, ErrDebugEnclave,
// ErrSVNTooLow, ErrIMAViolation, ErrTPMRequired or ErrTPMMismatch.
func (a *HostAppraisal) Err() error { return errors.Join(a.errs...) }

// AttestHost runs the remote attestation of a container host (steps 1–2 of
// Figure 1): challenge the integrity attestation enclave, validate the
// quote with IAS, check the evidence binding and enclave identity, and
// appraise the integrity measurement list.
func (m *Manager) AttestHost(name string) (*HostAppraisal, error) {
	m.mu.Lock()
	rec, ok := m.hosts[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}

	nonce := newNonce()
	useTPM := m.policy.RequireTPM || rec.aik != nil
	evStart := time.Now()
	ev, err := rec.conn.Attest(nonce, useTPM)
	if err != nil {
		return nil, fmt.Errorf("verifier: host attestation request: %w", err)
	}
	StepHostEvidence.Observe(time.Since(evStart))
	appStart := time.Now()
	app := m.appraiseHostEvidence(rec, nonce, ev)
	StepHostAppraisal.Observe(time.Since(appStart))
	m.auditAppraisal(app)

	m.mu.Lock()
	rec.trusted = app.Trusted
	rec.lastSeen = app.At
	rec.last = app
	m.mu.Unlock()
	return app, nil
}

// appraiseHostEvidence performs every verification step; it never returns
// early on failure so the appraisal lists all findings (operators fix root
// causes faster with the complete picture).
func (m *Manager) appraiseHostEvidence(rec *hostRecord, nonce []byte, ev *enclaveapp.HostEvidence) *HostAppraisal {
	app := &HostAppraisal{Host: rec.name, Trusted: true, At: time.Now()}
	fail := func(err error) {
		app.Trusted = false
		app.Findings = append(app.Findings, err.Error())
		app.errs = append(app.errs, err)
	}

	// Freshness: the evidence must carry the nonce this call sent.
	if string(ev.Nonce) != string(nonce) {
		fail(ErrNonceMismatch)
	}

	// Step 2: IAS validates the quote and revocation state.
	var quote *sgx.Quote
	app.QuoteStatus, quote = m.appraiseQuote(ev.Quote, base64.StdEncoding.EncodeToString(nonce)[:24],
		m.expectAtt, "attestation enclave", fail)
	if quote == nil {
		return app
	}
	// Channel binding: report data must commit to IML, nonce and TPM
	// quote.
	if quote.Body.ReportData != sgx.ReportDataFromHash(ev.BindingDigest()) {
		fail(ErrEvidenceBinding)
	}

	// Appraise the integrity measurement list.
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		fail(fmt.Errorf("IML parse: %w", err))
		return app
	}
	app.IMLEntries = list.Len()
	app.IMAResult = m.goldenIMA.Appraise(list)
	if !app.IMAResult.Trusted {
		for _, f := range app.IMAResult.Findings {
			fail(fmt.Errorf("%w: %s", ErrIMAViolation, f))
		}
	}

	// Hardware root of trust (§4 extension).
	if m.policy.RequireTPM || ev.TPMQuote != nil {
		if err := verifyTPMEvidence(rec.aik, ev, list); err != nil {
			fail(err)
		} else {
			app.TPMVerified = true
		}
	}
	return app
}

// appraiseQuote runs the quote checks host and credential-enclave
// appraisals share: IAS must return a report for the quote with a
// trusted status, and the quote must name an enclave in pins (what names
// the pin set in the finding), carry no debug attribute unless policy
// allows it, and meet the SVN floor. Every failed check goes to fail.
// The quote is nil when no report came back or it does not decode, so
// the caller's own checks of it stop there.
func (m *Manager) appraiseQuote(raw []byte, iasNonce string, pins map[sgx.Measurement]bool, what string, fail func(error)) (ias.QuoteStatus, *sgx.Quote) {
	avr, err := m.iasC.VerifyQuote(raw, iasNonce)
	if err != nil {
		fail(fmt.Errorf("%w: %w", ErrIASReport, err))
		return "", nil
	}
	status := avr.Status()
	if !status.Trusted() {
		fail(fmt.Errorf("%w: %s", ErrQuoteStatus, status))
	}
	quote, err := sgx.DecodeQuote(raw)
	if err != nil {
		fail(fmt.Errorf("quote decode: %w", err))
		return status, nil
	}
	m.mu.Lock()
	pinned := pins[quote.Body.MRENCLAVE]
	m.mu.Unlock()
	if !pinned {
		fail(fmt.Errorf("%w: %s %s", ErrUnexpectedMR, what, quote.Body.MRENCLAVE))
	}
	if quote.Body.Attributes.Debug && !m.policy.AllowDebug {
		fail(ErrDebugEnclave)
	}
	if quote.Body.ISVSVN < m.policy.MinISVSVN {
		fail(fmt.Errorf("%w: %d < %d", ErrSVNTooLow, quote.Body.ISVSVN, m.policy.MinISVSVN))
	}
	return status, quote
}

// HostTrusted reports whether a host's appraisal is current and trusted.
func (m *Manager) HostTrusted(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[name]
	if !ok || !rec.trusted {
		return false
	}
	if m.policy.ReattestAfter > 0 && time.Since(rec.lastSeen) > m.policy.ReattestAfter {
		return false
	}
	return true
}

// LastAppraisal returns the most recent appraisal for a host.
func (m *Manager) LastAppraisal(name string) (*HostAppraisal, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if rec.last == nil {
		return nil, fmt.Errorf("verifier: host %q never attested", name)
	}
	cp := *rec.last
	return &cp, nil
}

// LearnHostGolden attests a host in learning mode: the current IML is
// recorded as the golden baseline. Operators run this once against a
// known-good deployment.
func (m *Manager) LearnHostGolden(name string) error {
	m.mu.Lock()
	rec, ok := m.hosts[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	nonce := newNonce()
	ev, err := rec.conn.Attest(nonce, false)
	if err != nil {
		return err
	}
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		return err
	}
	m.goldenIMA.LearnFromList(list)
	return nil
}
