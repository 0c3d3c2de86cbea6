package geocode

import (
	"context"
	"errors"

	"stir/internal/admin"
	"stir/internal/textnorm"
)

// RefineProfile is the profile-refinement rule (§III-B) the batch pipeline
// and the stream engine share: classify the profile's location text and,
// for GPS-in-profile, reverse-geocode the point back to a unique gazetteer
// district. It returns the district, the text's quality and whether the
// user survives. A GPS profile that finds no match or no unique district
// does not survive with a nil error — a geocode failure in the funnel. Any
// other resolver error is returned, so callers treat it as a fault rather
// than as a bad profile.
func RefineProfile(ctx context.Context, text string, refiner *textnorm.Refiner, r Resolver, gaz *admin.Gazetteer) (*admin.District, textnorm.Quality, bool, error) {
	cls := refiner.Classify(text)
	switch cls.Quality {
	case textnorm.WellDefined:
		return cls.District, cls.Quality, true, nil
	case textnorm.GPSCoordinates:
		loc, err := r.Reverse(ctx, *cls.Point)
		if err != nil {
			if errors.Is(err, ErrNoMatch) {
				err = nil
			}
			return nil, cls.Quality, false, err
		}
		if ds := gaz.ResolveNameInState(loc.County, loc.State); len(ds) == 1 {
			return ds[0], cls.Quality, true, nil
		}
	}
	return nil, cls.Quality, false, nil
}
