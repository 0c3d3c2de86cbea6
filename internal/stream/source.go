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

// ClientLookup adapts the HTTP client SDK (retries and breaker included).
func ClientLookup(c *twitter.Client) UserLookup {
	return func(ctx context.Context, id twitter.UserID) (*twitter.User, error) {
		return c.UserShow(ctx, id)
	}
}

// NewProfileResolver builds the ProfileFunc mirroring the batch pipeline's
// refinement (pipeline.refineProfile): empty or meaningless profiles are
// rejected, well-defined names resolve through the refiner, GPS-in-profile
// goes through the geocoder and back to a unique gazetteer district. The
// decisions must match the batch path bit-for-bit — the differential tests
// depend on it.
func NewProfileResolver(lookup UserLookup, refiner *textnorm.Refiner, resolver geocode.Resolver, gaz *admin.Gazetteer) ProfileFunc {
	return func(ctx context.Context, id twitter.UserID) (core.Place, bool, error) {
		u, err := lookup(ctx, id)
		if err != nil {
			if twitter.IsNotFound(err) || errors.Is(err, twitter.ErrUserNotFound) {
				// A tweet from an account the platform no longer knows:
				// permanently unfilterable, like an empty profile.
				return core.Place{}, false, nil
			}
			return core.Place{}, false, err
		}
		if u.ProfileLocation == "" {
			return core.Place{}, false, nil
		}
		cls := refiner.Classify(u.ProfileLocation)
		switch cls.Quality {
		case textnorm.WellDefined:
			return core.Place{State: cls.District.State, County: cls.District.County}, true, nil
		case textnorm.GPSCoordinates:
			loc, err := resolver.Reverse(ctx, *cls.Point)
			if err != nil {
				if errors.Is(err, geocode.ErrNoMatch) {
					return core.Place{}, false, nil
				}
				return core.Place{}, false, err
			}
			ds := gaz.ResolveNameInState(loc.County, loc.State)
			if len(ds) != 1 {
				return core.Place{}, false, nil
			}
			return core.Place{State: ds[0].State, County: ds[0].County}, true, nil
		default:
			return core.Place{}, false, nil
		}
	}
}

// NewGazetteerResolver builds the same in-process reverse geocoder the batch
// pipeline runs on (pipeline.New): geocode.NewGazetteerResolver behind a
// 65536-entry cache.
func NewGazetteerResolver(gaz *admin.Gazetteer, slackKm float64) geocode.Resolver {
	return geocode.NewGazetteerResolver(gaz, slackKm, 65536)
}
