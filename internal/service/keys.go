package service

// KeyService: the original protect/recover workload — fitting keys,
// streaming under frozen keys, inverting releases — plus key metadata.

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"ppclust/internal/engine"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/metrics"
	"ppclust/internal/obs"
)

// KeyService manages owner keys and the synchronous transform paths.
type KeyService struct {
	c *deps
}

// List returns secret-free owner/version metadata for every owner.
func (k *KeyService) List() ([]keyring.Info, error) {
	infos, err := k.c.keys.List()
	if err != nil {
		return nil, classify(err)
	}
	return infos, nil
}

// OwnerState is a point-in-time snapshot of how the keyring knows an
// owner: with key material, with a credential-only claim, or neither.
type OwnerState struct {
	HasKey  bool
	HasCred bool
}

// State reports how the keyring knows owner. Transports take this
// snapshot to decide whether a protect must authorize before reading the
// body, then pass the SAME snapshot to FitProtect — re-deriving it after
// authorization would let a concurrent creation race an unauthenticated
// caller into a rotation.
func (k *KeyService) State(owner string) (OwnerState, error) {
	var st OwnerState
	if _, err := k.c.keys.Get(owner); err == nil {
		st.HasKey = true
	} else if !errors.Is(err, keyring.ErrNotFound) {
		return OwnerState{}, classify(err)
	}
	if _, err := k.c.keys.TokenHash(owner); err == nil {
		st.HasCred = true
	} else if !errors.Is(err, keyring.ErrNotFound) {
		return OwnerState{}, classify(err)
	}
	return st, nil
}

// FitResult is a successful fit-protect: the released matrix, the stored
// key version, and — when the fit created the owner — its minted token.
type FitResult struct {
	Released   *matrix.Dense
	KeyVersion int
	// MintedToken is the owner's new bearer token, present only when this
	// fit created the owner or repaired a credential-less one.
	MintedToken string
}

// FitProtect buffers data through a fresh engine fit, stores the secret
// as a new key version for owner, and returns the release.
//
// st must be the snapshot the caller based its authorization decision on
// (KeyService.State, taken before the body was read): a snapshot that
// says the owner exists means the caller authorized, so the fit rotates;
// a snapshot that says unknown routes to the atomic claim-with-token
// creation, whose loser under a concurrent creation gets a clean
// conflict — never an unauthenticated rotation of the freshly created
// owner's key.
func (k *KeyService) FitProtect(ctx context.Context, owner string, st OwnerState, data *matrix.Dense, opts engine.ProtectOptions) (FitResult, error) {
	if err := keyring.ValidName(owner); err != nil {
		return FitResult{}, classify(err)
	}
	res, err := k.c.eng.ProtectCtx(ctx, data, opts)
	if err != nil {
		return FitResult{}, classify(err)
	}
	_, keySpan := obs.Start(ctx, "keyring.put")
	defer keySpan.End()
	secret := fromEngineSecret(res.Secret())
	var entry keyring.Entry
	token := ""
	switch {
	case st.HasKey:
		// Rotation: the existing credential stays valid across versions.
		// When the owner has no credential yet (created with auth disabled,
		// or a keyring predating token auth), mint one now so enabling
		// auth later does not lock the owner out.
		if entry, err = k.c.keys.Rotate(owner, secret); err != nil {
			return FitResult{}, classify(err)
		}
		if _, terr := k.c.keys.TokenHash(owner); errors.Is(terr, keyring.ErrNotFound) {
			tok, hash, err := NewToken()
			if err != nil {
				return FitResult{}, err
			}
			if err := k.c.keys.SetToken(owner, hash); err != nil {
				return FitResult{}, classify(err)
			}
			token = tok
		}
	case st.HasCred:
		// First key for a credential-only owner (created by a dataset
		// upload): the credential stays; Create never replaces a token.
		if entry, err = k.c.keys.Create(owner, secret); err != nil {
			return FitResult{}, classify(err)
		}
	default:
		// Creation: claim the owner name, key and credential in one atomic
		// store operation — a failure leaves no half-created owner behind,
		// and a concurrent claim of the same name loses cleanly with a
		// conflict instead of rotating a key it never authenticated for.
		tok, hash, err := NewToken()
		if err != nil {
			return FitResult{}, err
		}
		if entry, err = k.c.keys.CreateWithToken(owner, secret, hash); err != nil {
			if errors.Is(err, keyring.ErrExists) {
				err = fmt.Errorf("owner %q was created concurrently; retry with its bearer token: %w", owner, err)
			}
			return FitResult{}, classify(err)
		}
		token = tok
	}
	k.c.rowsProtected.Add(int64(res.Released.Rows()))
	k.c.replicate(ReplicationEvent{Kind: ReplicateOwner, Owner: owner})
	return FitResult{Released: res.Released, KeyVersion: entry.Version, MintedToken: token}, nil
}

// BatchTransformer applies one direction of an owner's frozen transform
// batch by batch, counting transformed rows into the service metrics.
type BatchTransformer struct {
	// Owner and KeyVersion identify the transform for response metadata.
	Owner      string
	KeyVersion int
	// Cols is the column count of every batch, which a caller can check
	// against a stream's header before buffering any of its rows.
	Cols int

	fn      func(*matrix.Dense) error
	counter *metrics.Counter
}

// Transform converts one batch in place.
func (t *BatchTransformer) Transform(batch *matrix.Dense) error {
	if err := t.fn(batch); err != nil {
		return classify(err)
	}
	t.counter.Add(int64(batch.Rows()))
	return nil
}

// StreamProtector returns a transformer that protects batches under
// owner's stored key ("" version: current).
func (k *KeyService) StreamProtector(owner, version string) (*BatchTransformer, error) {
	entry, sp, err := k.streamer(owner, version)
	if err != nil {
		return nil, err
	}
	return &BatchTransformer{
		Owner: owner, KeyVersion: entry.Version, Cols: sp.Cols(),
		fn: sp.ProtectInPlace, counter: k.c.rowsProtected,
	}, nil
}

// Recoverer returns a transformer that inverts releases under owner's
// stored key ("" version: current).
func (k *KeyService) Recoverer(owner, version string) (*BatchTransformer, error) {
	entry, sp, err := k.streamer(owner, version)
	if err != nil {
		return nil, err
	}
	return &BatchTransformer{
		Owner: owner, KeyVersion: entry.Version, Cols: sp.Cols(),
		fn: sp.RecoverInPlace, counter: k.c.rowsRecovered,
	}, nil
}

func (k *KeyService) streamer(owner, version string) (keyring.Entry, *engine.StreamProtector, error) {
	entry, err := k.lookup(owner, version)
	if err != nil {
		return keyring.Entry{}, nil, err
	}
	sp, err := k.c.eng.NewStreamProtector(toEngineSecret(entry.Secret))
	if err != nil {
		return keyring.Entry{}, nil, classify(err)
	}
	return entry, sp, nil
}

// lookup fetches the owner's current or explicitly versioned entry.
func (k *KeyService) lookup(owner, versionStr string) (keyring.Entry, error) {
	if err := keyring.ValidName(owner); err != nil {
		return keyring.Entry{}, classify(err)
	}
	if versionStr == "" {
		entry, err := k.c.keys.Get(owner)
		return entry, classify(err)
	}
	version, err := strconv.Atoi(versionStr)
	if err != nil {
		return keyring.Entry{}, Invalid(fmt.Errorf("bad version %q", versionStr))
	}
	entry, err := k.c.keys.GetVersion(owner, version)
	return entry, classify(err)
}
