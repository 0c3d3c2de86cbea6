package stream

import (
	"context"
	"errors"

	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/geocode"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// UserLookup fetches one account — an in-process Service or the HTTP client.
type UserLookup func(ctx context.Context, id twitter.UserID) (*twitter.User, error)

// ServiceLookup adapts an in-process platform.
func ServiceLookup(svc *twitter.Service) UserLookup {
	return func(_ context.Context, id twitter.UserID) (*twitter.User, error) {
		return svc.User(id)
	}
}

// ClientLookup adapts the HTTP client SDK (its retry policy included).
func ClientLookup(c *twitter.Client) UserLookup {
	return func(ctx context.Context, id twitter.UserID) (*twitter.User, error) {
		return c.UserShow(ctx, id)
	}
}

// NewProfileResolver builds the ProfileFunc applying the batch pipeline's
// refinement rule, geocode.RefineProfile, to each account lookup fetches.
// An account the platform no longer knows is rejected, like an empty
// profile; any other lookup or resolver error is transient.
func NewProfileResolver(lookup UserLookup, refiner *textnorm.Refiner, resolver geocode.Resolver, gaz *admin.Gazetteer) ProfileFunc {
	return func(ctx context.Context, id twitter.UserID) (core.Place, bool, error) {
		u, err := lookup(ctx, id)
		if err != nil {
			if twitter.IsNotFound(err) || errors.Is(err, twitter.ErrUserNotFound) {
				return core.Place{}, false, nil
			}
			return core.Place{}, false, err
		}
		d, _, ok, err := geocode.RefineProfile(ctx, u.ProfileLocation, refiner, resolver, gaz)
		if !ok {
			return core.Place{}, false, err
		}
		return core.Place{State: d.State, County: d.County}, true, nil
	}
}

// NewGazetteerResolver builds the same in-process reverse geocoder the batch
// pipeline runs on (pipeline.New): geocode.NewGazetteerResolver with a
// 65536-slot point table, which every shard shares without a lock.
func NewGazetteerResolver(gaz *admin.Gazetteer, slackKm float64) geocode.Resolver {
	return geocode.NewGazetteerResolver(gaz, slackKm, 65536)
}
